"""Exact brute-force ground truth for small instances.

Every optimum is found by enumerating candidate supports in increasing
cardinality and lexicographic order within a cardinality, so witnesses are
deterministic: the first feasible candidate wins. Size guards keep the worst
case around 10^7 feasibility checks; pass ``allow_large=True`` to go past
them deliberately.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

from minctrl.errors import (
    EnumerationGuardError,
    InternalVerificationError,
    InvalidInputError,
)
from minctrl.greedy import rank_oracle, sparse_columns
from minctrl.linalg import pbh_support_test
from minctrl.matrices import Matrix, RationalMatrix
from minctrl.reductions import HittingSetInstance

MAX_GROUND_SIZE = 20
MAX_STATE_DIM = 14


@dataclass(frozen=True)
class OracleResult:
    """An exact optimum with a certified witness."""

    optimum: int
    witness: tuple[int, ...]
    enumerated: int

    def __post_init__(self):
        if len(self.witness) != self.optimum:
            raise InternalVerificationError("witness size must equal the optimum")

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
    inst: HittingSetInstance, *, allow_large: bool = False
) -> OracleResult:
    """Smallest subset of the ground set meeting every set (1-based elements)."""
    if inst.ground_size > MAX_GROUND_SIZE and not allow_large:
        raise EnumerationGuardError(
            f"ground size {inst.ground_size} exceeds the enumeration guard "
            f"{MAX_GROUND_SIZE}; pass allow_large to override"
        )
    universe = range(1, inst.ground_size + 1)
    examined = 0
    for size in range(0, inst.ground_size + 1):
        for candidate in combinations(universe, size):
            examined += 1
            chosen = set(candidate)
            if all(chosen & s for s in inst.sets):
                return OracleResult(size, candidate, examined)
    raise InternalVerificationError("full ground set failed to hit every set")


def brute_force_min_vector_support(
    V_rows: RationalMatrix, *, allow_large: bool = False
) -> OracleResult:
    """Smallest support carrying a controllable input vector.

    ``V_rows`` holds exact left eigenvectors (one row per eigenvalue, all
    distinct); a support works iff it meets the support of every row, tested
    with the shared PBH support predicate. Witness indices are 0-based.
    """
    _check_state_guard(V_rows, allow_large)
    n = V_rows.cols
    examined = 0
    for size in range(0, n + 1):
        for candidate in combinations(range(n), size):
            examined += 1
            if pbh_support_test(V_rows, candidate):
                return OracleResult(size, candidate, examined)
    raise InternalVerificationError("a zero eigenvector row makes every support fail")


def brute_force_min_diagonal_support(
    V_rows: RationalMatrix, *, allow_large: bool = False
) -> OracleResult:
    """Smallest diagonal-input support; independent of the vector oracle.

    Feasibility is decided by materializing the product of each eigenvector
    row with the candidate diagonal matrix and testing it for a nonzero
    entry, rather than by the shared support predicate, so the two oracles
    cross-check each other.
    """
    _check_state_guard(V_rows, allow_large)
    n = V_rows.cols
    examined = 0
    for size in range(0, n + 1):
        for candidate in combinations(range(n), size):
            examined += 1
            chosen = set(candidate)
            feasible = True
            for row in V_rows.data:
                # row times diag(candidate indicator): keep chosen coordinates
                product = [row[j] if j in chosen else 0 for j in range(n)]
                if not any(product):
                    feasible = False
                    break
            if feasible:
                return OracleResult(size, candidate, examined)
    raise InternalVerificationError("a zero eigenvector row makes every support fail")


def _check_state_guard(V_rows: RationalMatrix, allow_large: bool) -> None:
    if V_rows.rows != V_rows.cols:
        raise InvalidInputError(
            f"eigenvector matrix must be square, got {V_rows.rows}x{V_rows.cols}"
        )
    if V_rows.rows > MAX_STATE_DIM and not allow_large:
        raise EnumerationGuardError(
            f"state dimension {V_rows.rows} exceeds the enumeration guard "
            f"{MAX_STATE_DIM}; pass allow_large to override"
        )


def controllability_rank(A: Matrix, B: Matrix, rank_backend: str = "exact") -> int:
    """Rank of the controllability matrix ``(B, AB, ..., A^{n-1}B)``.

    The ``input_rank`` of ``rank_oracle(A, rank_backend)``: ``"exact"``
    counts over a certified eigenbasis, else eliminates integer Krylov
    columns; ``"svd"`` thresholds singular values; ``"pbh"`` counts the left
    eigenvectors of ``A`` not orthogonal to some column of ``B`` (distinct
    spectra only; see ``pbh_controllability_rank``). ``B`` needs one row per
    state for every backend: a ``1 x n`` ``B`` is rejected, not read as a column.
    """
    oracle = rank_oracle(A, rank_backend)
    columns = sparse_columns(B, oracle.value)
    if B.rows != oracle.n:
        raise InvalidInputError(f"B has {B.rows} rows but A is {oracle.n}x{oracle.n}")
    return oracle.input_rank(columns)


def kalman_test(A: Matrix, B: Matrix, rank_backend: str = "exact") -> bool:
    """Full-rank test of the controllability matrix under a chosen backend."""
    return controllability_rank(A, B, rank_backend) == A.rows
