"""Exact brute-force ground truth for small instances.

The module holds only the brute-force searches; the rank of a
controllability matrix is ``greedy.controllability_rank``. Every oracle
asks one question: which smallest support meets every row?
For ``hitting-set`` the rows are the instance's sets; for ``min-vector``
and ``min-diagonal`` they are the supports of the left eigenvectors (the
PBH test, Hautus 1969), and the two kinds are one function. Each target
becomes a list of int bitmasks once, and one search tests them. It
enumerates candidate supports in increasing cardinality and lexicographic
order within a cardinality, so witnesses are deterministic: the first
feasible candidate wins. Inputs are checked first, so the full set is
feasible. Size guards keep the worst case around 10^7 feasibility checks;
pass ``allow_large=True`` to go past them deliberately.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

# the module, not its names: an eigenvector search does not execute reductions
from minctrl import reductions
from minctrl.errors import (
    EnumerationGuardError,
    InternalVerificationError,
    InvalidInputError,
)
from minctrl.matrices import RationalMatrix

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


def brute_force_hitting_set(
    inst: reductions.HittingSetInstance, *, allow_large: bool = False
) -> OracleResult:
    """Smallest subset of the ground set meeting every set (1-based elements)."""
    _check_guard("ground size", inst.ground_size, MAX_GROUND_SIZE, allow_large)
    masks = [sum(1 << e for e in s) for s in inst.sets]
    return _first_feasible(range(1, inst.ground_size + 1), masks)


def brute_force_min_vector_support(
    V_rows: RationalMatrix, *, allow_large: bool = False
) -> OracleResult:
    """Smallest support carrying a controllable input vector, or diagonal input.

    ``V_rows`` holds exact left eigenvectors (one row per eigenvalue, all
    distinct); a support works iff it meets the support of every row (PBH).
    With a distinct spectrum, a diagonal input on a support is controllable
    exactly when a generic vector on it is, so this is both optima. Witness
    indices are 0-based.
    """
    return _first_feasible(range(V_rows.cols), _row_masks(V_rows, allow_large))


def _first_feasible(universe: range, masks: list[int]) -> OracleResult:
    """The first subset of ``universe`` that meets every mask, where element
    ``e`` is bit ``e``; ``enumerated`` counts the candidates examined, the
    witness included."""
    bits = [1 << e for e in universe]
    candidates = chain.from_iterable(
        zip(combinations(universe, size), map(sum, combinations(bits, size)))
        for size in range(len(universe) + 1)
    )
    for examined, (candidate, chosen) in enumerate(candidates, 1):
        if all(mask & chosen for mask in masks):
            return OracleResult(candidate, examined)
    raise InternalVerificationError("no candidate support is feasible")


def _check_guard(what: str, size: int, limit: int, allow_large: bool) -> None:
    if size > limit and not allow_large:
        raise EnumerationGuardError(
            f"{what} {size} exceeds the enumeration guard {limit}; "
            "pass allow_large to override"
        )


def _row_masks(V_rows: RationalMatrix, allow_large: bool) -> list[int]:
    """Each eigenvector row's support as a bitmask, bit ``j`` for column ``j``.

    What no support could serve is rejected before the search starts.
    """
    if V_rows.rows != V_rows.cols:
        raise InvalidInputError(
            f"eigenvector matrix must be square, got {V_rows.rows}x{V_rows.cols}"
        )
    _check_guard("state dimension", V_rows.rows, MAX_STATE_DIM, allow_large)
    masks = [sum(1 << j for j, x in enumerate(row) if x) for row in V_rows.data]
    if not all(masks):
        raise InvalidInputError("a zero eigenvector row makes every support fail")
    return masks
