"""System families and exact rank paths for the differential net.

Each family draws a pair: a square rational ``A``, and the strategy its
inputs' nonzero entries come from. ``SYSTEMS`` mixes them all.
``EXACT_PATHS`` maps each exact rank path to a constructor of its oracle
for ``A``, which returns ``None`` where the path does not apply.
"""

import math
import random
import sys
from fractions import Fraction
from pathlib import Path

from hypothesis import assume
from hypothesis import strategies as st

from minctrl.experiments import sample_er_digraph
from minctrl.greedy import _EigenbasisOracle, _KrylovOracle
from minctrl.greedy import deterministic_greedy_vector, greedy_diagonal, randomized_greedy_vector
from minctrl.linalg import certified_left_eigenbasis, rank_exact
from minctrl.matrices import RationalMatrix, as_rational
from minctrl.reductions import HittingSetInstance, build_reduction, build_symmetric_extension

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from workloads import planted_instance  # noqa: E402


def fractions(bound: int, max_denominator: int) -> st.SearchStrategy:
    """The values of ``st.fractions(-bound, bound, max_denominator=...)``,
    drawn from a list: ten times faster, and shrinking towards 0."""
    q_range = range(1, max_denominator + 1)
    values = {Fraction(p, q) for q in q_range for p in range(-bound * q, bound * q + 1)}
    return st.sampled_from(sorted(values, key=lambda x: (abs(x), x)))


FRACTIONS = fractions(3, 3)
RATIONALS = fractions(4, 6)
# multiples of the prime 2^31 - 1 plus small offsets: ranks over Q that a
# rank mod that prime may miss
BIG = st.builds(
    lambda k, offset: Fraction(k * (2**31 - 1) + offset), st.integers(-3, 3), st.integers(-2, 2)
)


def _square(entry: st.SearchStrategy, n: int) -> st.SearchStrategy:
    return st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)


def conjugate(P_rows, diagonal) -> RationalMatrix:
    """``P^{-1} diag P``: the rows of ``P`` are its left eigenvectors."""
    P = RationalMatrix.from_rows(P_rows)
    return P.inverse() @ RationalMatrix.diagonal(diagonal) @ P


@st.composite
def certified(draw) -> tuple:
    """``P^{-1} D P`` with small rational ``P`` and distinct rational ``D``."""
    n = draw(st.integers(1, 4))
    P = draw(_square(FRACTIONS, n))
    assume(rank_exact(RationalMatrix.from_rows(P)) == n)
    D = draw(st.lists(FRACTIONS, min_size=n, max_size=n, unique=True))
    return conjugate(P, D), FRACTIONS


@st.composite
def instances(draw, max_m: int = 7, max_sets: int = 8) -> HittingSetInstance:
    """Hitting-set instances over ``1..m`` with every element in a set: random
    sets, or the benchmark's planted two-element sets with optimum ``k``."""
    m = draw(st.integers(1, max_m))
    if 2 <= m <= max_sets and draw(st.booleans(), label="planted"):
        rng = random.Random(draw(st.integers(0, 2**32 - 1)))
        p, k = draw(st.integers(m, max_sets)), draw(st.integers(1, m // 2))
        return HittingSetInstance.from_json_dict(planted_instance(rng, m, p, k))
    sets = draw(st.lists(st.sets(st.integers(1, m), min_size=1), min_size=1, max_size=max_sets))
    for element in range(1, m + 1):
        if not any(element in s for s in sets):
            sets[draw(st.integers(0, len(sets) - 1))].add(element)
    return HittingSetInstance.from_sets(m, [sorted(s) for s in sets])


@st.composite
def jordan(draw) -> tuple:
    """Inputs without an eigenbasis: a Jordan block, or ``J_2(1) + J_2(2)``."""
    if draw(st.booleans(), label="J_2(1) + J_2(2)"):
        rows = [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 2]]
    else:
        n = draw(st.integers(2, 4))
        eigenvalue = draw(FRACTIONS)
        rows = [[eigenvalue if i == k else int(k == i + 1) for k in range(n)] for i in range(n)]
    return RationalMatrix.from_rows(rows), FRACTIONS


@st.composite
def rationals(draw) -> tuple:
    """Dense rational matrices with a non-integer entry, or sparse ones,
    whose zeros the integer products skip."""
    sparse = draw(st.booleans(), label="sparse")
    n = draw(st.integers(1, 6 if sparse else 4))
    # one_of picks among its branches about evenly: most sparse entries are zero
    entry = st.one_of(*[st.just(Fraction(0))] * 3, RATIONALS) if sparse else RATIONALS
    rows = draw(_square(entry, n))
    assume(sparse or any(x.denominator > 1 for row in rows for x in row))
    return RationalMatrix.from_rows(rows), RATIONALS


@st.composite
def er_graphs(draw) -> tuple:
    """0/1 adjacency matrices of Erdos-Renyi digraphs at ``p = 2 ln n / n``."""
    n = draw(st.integers(2, 6))
    A = sample_er_digraph(n, min(1.0, 2 * math.log(n) / n), draw(st.integers(0, 2**32 - 1)))
    return as_rational(A), FRACTIONS


SYSTEMS = st.one_of(
    certified(),
    instances(max_m=5, max_sets=7).map(
        lambda inst: (build_reduction(inst).system_matrix, FRACTIONS)
    ),
    # symmetric, from one set over m <= 2 elements: r = 7 or 11
    instances(max_m=2, max_sets=1).map(
        lambda inst: (build_symmetric_extension(inst).system_matrix, FRACTIONS)
    ),
    jordan(),
    rationals(),
    er_graphs(),
    # A and its inputs near multiples of the prime
    st.integers(1, 4).flatmap(lambda n: _square(BIG, n)).map(
        lambda rows: (RationalMatrix.from_rows(rows), BIG)
    ),
)


# in the order rank_oracle(A, "exact") prefers them; an oracle's path is its name
EXACT_PATHS = {
    "eigenbasis": lambda A: (basis := certified_left_eigenbasis(A)) and _EigenbasisOracle(basis),
    "bareiss": _KrylovOracle,
}

SOLVERS = {
    "det": lambda A: deterministic_greedy_vector(A, "exact"),
    "rand0": lambda A: randomized_greedy_vector(A, 0, "exact"),
    "diag": lambda A: greedy_diagonal(A, "exact"),
}
