"""Exactness of the integer rank kernel."""

import random

import numpy as np
import pytest

from minctrl._kernels import ACTIVE_KERNEL, integer_rank, pure

KERNELS = [("pure", pure.integer_rank)]


@pytest.mark.parametrize("name,rank", KERNELS)
def test_basic_ranks(name, rank):
    assert rank([[0, 0], [0, 0]]) == 0
    assert rank([[1, 0], [0, 1]]) == 2
    assert rank([[1, 2], [2, 4]]) == 1
    assert rank([[1, 2, 3]]) == 1
    assert rank([[1], [2], [3]]) == 1


@pytest.mark.parametrize("name,rank", KERNELS)
def test_matches_numpy_on_small_integers(name, rank):
    rng = random.Random(101)
    for _ in range(200):
        r, c = rng.randint(1, 9), rng.randint(1, 9)
        m = [[rng.randint(-20, 20) for _ in range(c)] for _ in range(r)]
        if r >= 2 and rng.random() < 0.5:
            m[-1] = [3 * x for x in m[0]]
        expected = np.linalg.matrix_rank(np.array(m, dtype=float))
        assert rank(m) == expected


def test_huge_entries_use_exact_arithmetic():
    # far beyond int64: only exact big-int arithmetic gets this right
    big = 10**40
    m = [[big, big + 1], [big - 1, big]]
    # determinant is big^2 - (big^2 - 1) = 1, so full rank
    assert integer_rank(m) == 2
    singular = [[big, 2 * big], [3 * big, 6 * big]]
    assert integer_rank(singular) == 1


def test_mid_elimination_overflow_is_handled():
    # the Bareiss minors of 1e8-sized entries grow far past 64 bits, and
    # every division along the way must stay exact
    rng = random.Random(13)
    m = [[rng.randint(-(10**8), 10**8) for _ in range(9)] for _ in range(9)]
    assert integer_rank(m) == 9
    m[-1] = [3 * x - 2 * y for x, y in zip(m[0], m[1])]
    assert integer_rank(m) == 8


@pytest.mark.parametrize("name,rank", KERNELS)
def test_zero_below_pivot_rows_are_rescaled(name, rank):
    # regression: rows with a zero in the pivot column still rescale by
    # pval/prev; skipping that broke the exactness of later divisions and
    # returned rank 2 here
    assert rank([[-3, 1, 6], [0, -1, 3], [0, -2, 7]]) == 3


@pytest.mark.parametrize("name,rank", KERNELS)
def test_sparse_structured_matches_numpy(name, rank):
    rng = random.Random(23)
    for _ in range(200):
        r, c = rng.randint(2, 8), rng.randint(2, 8)
        density = rng.choice([0.25, 0.5])
        m = [
            [rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(c)]
            for _ in range(r)
        ]
        expected = np.linalg.matrix_rank(np.array(m, dtype=float))
        assert rank(m) == expected


def test_active_kernel_reported():
    assert ACTIVE_KERNEL == "pure"
