"""Pure-Python integer rank kernel (fraction-free elimination).

Arbitrary-precision Python ints, so there is no overflow to guard against.
"""

from __future__ import annotations


def integer_rank(rows: list[list[int]]) -> int:
    """Rank of an integer matrix given as a list of row lists.

    Fraction-free (Bareiss) elimination with partial pivoting by entry
    magnitude; every intermediate value stays an exact integer.
    """
    nrows = len(rows)
    if nrows == 0:
        return 0
    ncols = len(rows[0])
    m = [list(r) for r in rows]
    prev = 1
    r0 = 0
    for col in range(ncols):
        if r0 >= nrows:
            break
        piv = -1
        best = 0
        for i in range(r0, nrows):
            v = m[i][col]
            if v:
                a = v if v > 0 else -v
                if a > best:
                    best = a
                    piv = i
        if piv < 0:
            continue
        if piv != r0:
            m[r0], m[piv] = m[piv], m[r0]
        prow = m[r0]
        pval = prow[col]
        for i in range(r0 + 1, nrows):
            row = m[i]
            f = row[col]
            if f:
                for j in range(col + 1, ncols):
                    row[j] = (pval * row[j] - f * prow[j]) // prev
                row[col] = 0
            elif pval != prev:
                # rows already zero in the pivot column still rescale by
                # pval/prev (Sylvester identity with f = 0); skipping this
                # breaks the exactness of later divisions
                for j in range(col + 1, ncols):
                    row[j] = (pval * row[j]) // prev
        prev = pval
        r0 += 1
    return r0
