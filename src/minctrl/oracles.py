"""Exact brute-force ground truth for small instances.

Every oracle gives its own feasibility predicate to one search, which
enumerates candidate supports in increasing cardinality and lexicographic
order within a cardinality, so witnesses are deterministic: the first
feasible candidate wins. Inputs are checked first, so the full set is
feasible. Size guards keep the worst case around 10^7 feasibility checks;
pass ``allow_large=True`` to go past them deliberately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations
from typing import Callable

# modules, not their functions: a hitting-set search executes neither
# greedy nor linalg, and an eigenvector search does not execute reductions
from minctrl import greedy, linalg, reductions
from minctrl.errors import (
    EnumerationGuardError,
    InternalVerificationError,
    InvalidInputError,
)
from minctrl.matrices import Matrix, RationalMatrix

MAX_GROUND_SIZE = 20
MAX_STATE_DIM = 14


@dataclass(frozen=True)
class OracleResult:
    """An exact optimum: the size of its certified witness."""

    witness: tuple[int, ...]
    enumerated: int

    @property
    def optimum(self) -> int:
        return len(self.witness)

    def to_json_dict(self) -> dict:
        return {
            "schema_version": 1,
            "optimum": self.optimum,
            "witness": list(self.witness),
            "enumerated": self.enumerated,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def brute_force_hitting_set(
    inst: reductions.HittingSetInstance, *, allow_large: bool = False
) -> OracleResult:
    """Smallest subset of the ground set meeting every set (1-based elements)."""
    _check_guard("ground size", inst.ground_size, MAX_GROUND_SIZE, allow_large)
    return _first_feasible(
        range(1, inst.ground_size + 1),
        lambda candidate: all(s.intersection(candidate) for s in inst.sets),
    )


def brute_force_min_vector_support(
    V_rows: RationalMatrix, *, allow_large: bool = False
) -> OracleResult:
    """Smallest support carrying a controllable input vector.

    ``V_rows`` holds exact left eigenvectors (one row per eigenvalue, all
    distinct); a support works iff it meets the support of every row, tested
    with the shared PBH support predicate. Witness indices are 0-based.
    """
    _check_eigenvectors(V_rows, allow_large)
    return _first_feasible(
        range(V_rows.cols), lambda candidate: linalg.pbh_support_test(V_rows, candidate)
    )


def brute_force_min_diagonal_support(
    V_rows: RationalMatrix, *, allow_large: bool = False
) -> OracleResult:
    """Smallest diagonal-input support; independent of the vector oracle.

    Feasibility is decided by materializing the product of each eigenvector
    row with the candidate diagonal matrix and testing it for a nonzero
    entry, rather than by the shared support predicate, so the two oracles
    cross-check each other.
    """
    _check_eigenvectors(V_rows, allow_large)
    n = V_rows.cols

    def reaches_every_row(candidate):
        chosen = set(candidate)
        # row times diag(candidate indicator): keep chosen coordinates
        return all(
            any([row[j] if j in chosen else 0 for j in range(n)]) for row in V_rows.data
        )

    return _first_feasible(range(n), reaches_every_row)


def _first_feasible(universe: range, feasible: Callable) -> OracleResult:
    """The first feasible subset of ``universe``; ``enumerated`` counts the
    candidates examined, the witness included."""
    candidates = chain.from_iterable(
        combinations(universe, size) for size in range(len(universe) + 1)
    )
    for examined, candidate in enumerate(candidates, 1):
        if feasible(candidate):
            return OracleResult(candidate, examined)
    raise InternalVerificationError("no candidate support is feasible")


def _check_guard(what: str, size: int, limit: int, allow_large: bool) -> None:
    if size > limit and not allow_large:
        raise EnumerationGuardError(
            f"{what} {size} exceeds the enumeration guard {limit}; "
            "pass allow_large to override"
        )


def _check_eigenvectors(V_rows: RationalMatrix, allow_large: bool) -> None:
    """Reject what no support could serve before the search starts."""
    if V_rows.rows != V_rows.cols:
        raise InvalidInputError(
            f"eigenvector matrix must be square, got {V_rows.rows}x{V_rows.cols}"
        )
    _check_guard("state dimension", V_rows.rows, MAX_STATE_DIM, allow_large)
    if not all(any(row) for row in V_rows.data):
        raise InvalidInputError("a zero eigenvector row makes every support fail")


def controllability_rank(A: Matrix, B: Matrix, rank_backend: str = "exact") -> int:
    """Rank of the controllability matrix ``(B, AB, ..., A^{n-1}B)``.

    The ``input_rank`` of ``rank_oracle(A, rank_backend)``: ``"exact"``
    counts over a certified eigenbasis, else eliminates integer Krylov
    columns; ``"pbh"`` counts the left eigenvectors of ``A`` not orthogonal
    to some column of ``B`` (distinct spectra only; see
    ``pbh_controllability_rank``). ``B`` needs one row per state for every
    backend: a ``1 x n`` ``B`` is rejected, not read as a column.
    """
    oracle = greedy.rank_oracle(A, rank_backend)
    columns = greedy.sparse_columns(B, oracle.value)
    if B.rows != oracle.n:
        raise InvalidInputError(f"B has {B.rows} rows but A is {oracle.n}x{oracle.n}")
    return oracle.input_rank(columns)


def kalman_test(A: Matrix, B: Matrix, rank_backend: str = "exact") -> bool:
    """Full-rank test of the controllability matrix under a chosen backend."""
    return controllability_rank(A, B, rank_backend) == A.rows
