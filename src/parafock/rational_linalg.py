"""Exact linear algebra: elimination, rank, symmetric rank/PSD.

No floating point anywhere.  The general routines work over Fraction.  The
symmetric elimination works on integer matrices and stays fraction-free: its
intermediate values are integer minors, and only the pivots it returns are
Fractions.  The dense routines' matrices are desk scale.
"""

from __future__ import annotations

import operator
from fractions import Fraction


def rref(rows):
    """Reduced row echelon form (in place on a copy); returns (rows, pivot_cols)."""
    a = [list(map(Fraction, r)) for r in rows]
    nrows = len(a)
    ncols = len(a[0]) if a else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [x / pv for x in a[r]]
        for i in range(nrows):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def matrix_rank(rows) -> int:
    return len(rref(rows)[1])


def symmetric_rank_psd(gram):
    """Exact rank and positive semidefiniteness of a symmetric integer matrix.

    One fraction-free (Bareiss) congruence elimination with diagonal
    pivoting: the pivot is the first remaining index with a nonzero diagonal.
    Every intermediate entry is an integer minor, so each division is exact;
    the k-th pivot element is the leading principal minor M_k over the first
    k pivot indices (M_0 = 1).  Returns (rank, psd, pivots, pivot_indices):

    - pivots are the LDL pivots M_k / M_(k-1) as Fractions, and double as
      the PSD certificate;
    - pivot_indices are the basis positions pivoted on, in pivot order.
      The k-th pivot's LDL transform row, G-orthogonal to the earlier ones,
      is supported on the first k pivot positions and nonzero at the k-th,
      so the transform rows together are supported on pivot_indices.

    When every remaining diagonal entry vanishes inside a nonzero remaining
    block (the matrix is indefinite), the rank comes from general
    elimination and pivot_indices is None.  Entries must be integers
    (TypeError otherwise); a non-symmetric matrix raises ValueError.
    """
    a = [list(map(operator.index, row)) for row in gram]
    nn = len(a)
    for i in range(nn):
        for j in range(i):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    remaining = list(range(nn))
    pivots = []
    pivot_indices = []
    psd = True
    prev = 1  # the leading minor of the pivots so far
    while remaining:
        pi = next((i for i in remaining if a[i][i]), None)
        if pi is None:
            # all remaining diagonal entries vanish; PSD forces the whole
            # remaining block to vanish
            if not any(a[i][j] for i in remaining for j in remaining):
                break
            # indefinite: finish rank with general elimination
            sub = [[a[i][j] for j in remaining] for i in remaining]
            return len(pivots) + matrix_rank(sub), False, pivots, None
        d = a[pi][pi]
        if d < 0:
            psd = False
        pivots.append(Fraction(d, prev))
        remaining.remove(pi)
        pivot_indices.append(pi)
        row = a[pi]
        # row-only update: the two symmetric cross terms cancel, so the
        # remaining block stays symmetric and equals the congruence reduction;
        # rows with a zero in the pivot column are only rescaled to M_k
        for j in remaining:
            f = a[j][pi]
            if f:
                a[j] = [(d * x - f * y) // prev for x, y in zip(a[j], row)]
            elif d != prev:
                a[j] = [d * x // prev for x in a[j]]
        prev = d
    return len(pivots), psd, pivots, pivot_indices
