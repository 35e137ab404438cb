"""Untimed correctness gate and result digests for benchmark operations.

The gate judges an operation by the files it wrote, using exact reference
computations that do not share the code path under test where that is cheap:

* ``solve``: the trace must agree with the reported support and values, the
  input must be controllable under an exact Kalman rank computed with the
  reference kernel ``minctrl._kernels.pure.integer_rank``, and the sparsity
  must be at most ``(1 + ln n) * (hitting-set optimum + 1)``.
* ``experiment``: every accepted trial is controllable and at least 90% of
  accepted trials are 1-sparse.
* ``reduce``: for n <= 14, ``V A = diag(1..n) V`` holds exactly and the
  brute-force minimum vector support of ``V`` equals the hitting-set optimum
  plus one.

A digest covers only the fields that carry the result, so that it compares
across machines and checkout locations.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction
from functools import reduce
from pathlib import Path

ORACLE_MAX_N = 14
SOLVE_FIELDS = ("support", "values", "trace", "final_rank", "controllable")
EXPERIMENT_FIELDS = ("records", "histogram")


def digest(op) -> str:
    """sha256 over the result-carrying content of an operation's outputs."""
    h = hashlib.sha256()
    for path in op.outputs:
        data = Path(path).read_bytes()
        if op.kind in ("solve", "experiment"):
            fields = SOLVE_FIELDS if op.kind == "solve" else EXPERIMENT_FIELDS
            obj = json.loads(data)
            data = json.dumps({k: obj.get(k) for k in fields}, sort_keys=True).encode()
        h.update(Path(path).name.encode() + b"\0" + data + b"\0")
    return h.hexdigest()


def gate(op) -> str | None:
    """Return None when the operation's outputs are correct, else the reason."""
    try:
        if op.kind == "solve":
            return _check_solve(op)
        if op.kind == "experiment":
            return _check_experiment(op)
        return _check_reduce(op)
    except Exception as exc:  # a corrupt output fails the operation, not the run
        return f"gate error: {exc!r}"


def _hitting_set_optimum(inst: dict) -> int:
    from minctrl.oracles import brute_force_hitting_set
    from minctrl.reductions import HittingSetInstance

    return brute_force_hitting_set(HittingSetInstance.from_json_dict(inst)).optimum


def _integer_matrix(A) -> list[list[int]]:
    scale = reduce(math.lcm, (x.denominator for row in A.data for x in row), 1)
    return [[int(x * scale) for x in row] for row in A.data]


def _kalman_rank(A_int: list[list[int]], inputs: list[list[int]]) -> int:
    """Rank of [B, AB, ..., A^{n-1} B] via the reference Bareiss kernel."""
    from minctrl._kernels.pure import integer_rank

    n = len(A_int)
    columns = []
    for col in inputs:
        for _ in range(n):
            columns.append(col)
            col = [sum(a * c for a, c in zip(row, col)) for row in A_int]
    return integer_rank(columns)


def _check_solve(op) -> str | None:
    from minctrl.matrices import as_rational, load_matrix

    out = json.loads(Path(op.outputs[0]).read_text())
    support, values, trace = out["support"], out["values"], out["trace"]
    if [t["chosen_index"] for t in trace] != support:
        return "trace does not match support"
    if [t["chosen_value"] for t in trace] != values:
        return "trace does not match values"
    A = as_rational(load_matrix(op.check["matrix"]))
    n = A.rows
    if not (out["controllable"] and out["final_rank"] == n and out["n"] == n):
        return "result not reported controllable at full rank"
    if len(set(support)) != len(support) or not all(0 <= j < n for j in support):
        return "support indices invalid"
    if op.check["mode"] == "diagonal":
        inputs = [[int(i == j) for i in range(n)] for j in support]
    else:
        b = [Fraction(0)] * n
        for j, v in zip(support, values):
            b[j] = Fraction(v)
        den = reduce(math.lcm, (x.denominator for x in b), 1)
        inputs = [[int(x * den) for x in b]]
    rank = _kalman_rank(_integer_matrix(A), inputs)
    if rank != n:
        return f"exact Kalman rank {rank} < n = {n}"
    bound = (1 + math.log(n)) * (_hitting_set_optimum(op.check["instance"]) + 1)
    if len(support) > bound:
        return f"sparsity {len(support)} exceeds (1 + ln n)(opt + 1) = {bound:.2f}"
    return None


def _check_experiment(op) -> str | None:
    report = json.loads(Path(op.outputs[0]).read_text())
    accepted = [r for r in report["records"] if r["accepted"]]
    if not accepted:
        return "no accepted trials"
    if not all(r["controllable"] for r in accepted):
        return "an accepted trial is not controllable"
    one_sparse = sum(r["sparsity_found"] == 1 for r in accepted)
    if one_sparse < 0.9 * len(accepted):
        return f"only {one_sparse}/{len(accepted)} accepted trials are 1-sparse"
    return None


def _check_reduce(op) -> str | None:
    from minctrl.matrices import RationalMatrix, as_rational, load_matrix
    from minctrl.oracles import brute_force_min_vector_support

    directory = Path(op.check["dir"])
    V = as_rational(load_matrix(directory / "V.json"))
    A = as_rational(load_matrix(directory / "A.json"))
    n = V.rows
    if n != op.check["instance"]["m"] + len(op.check["instance"]["sets"]) + 1:
        return f"V has {n} rows, expected the instance's state dimension"
    if n > ORACLE_MAX_N:
        return None
    D = RationalMatrix.diagonal(list(range(1, n + 1)))
    if V @ A != D @ V:
        return "V A != diag(1..n) V"
    optimum = brute_force_min_vector_support(V).optimum
    expected = _hitting_set_optimum(op.check["instance"]) + 1
    if optimum != expected:
        return f"minimum vector support {optimum} != hitting-set optimum + 1 = {expected}"
    return None
