"""Exact linear algebra: the rank and positive semidefiniteness of a
symmetric integer matrix.

No floating point and no Fraction anywhere.  One fraction-free (Bareiss)
elimination serves every block: its intermediate values are integer minors,
so each division is exact, and what it returns (the rank, the verdict, the
leading minors and the pivot positions) is integer.
"""

from __future__ import annotations

import operator


def symmetric_rank_psd(gram):
    """Exact rank and positive semidefiniteness of a symmetric integer matrix.

    One fraction-free (Bareiss) congruence elimination with diagonal
    pivoting: the pivot is the first remaining index with a nonzero diagonal.
    Every intermediate entry is an integer minor, so each division is exact;
    the k-th pivot element is the leading principal minor M_k over the first
    k pivot indices (M_0 = 1).  Returns (rank, psd, minors, pivot_indices):

    - minors are M_1, M_2, ... as ints; the LDL pivots are M_k / M_(k-1),
      and psd holds when no stall came and every minor is positive
      (Sylvester's criterion);
    - pivot_indices are the basis positions pivoted on, in pivot order.
      The k-th pivot's LDL transform row, G-orthogonal to the earlier ones,
      is supported on the first k pivot positions and nonzero at the k-th,
      so the transform rows together are supported on pivot_indices.

    When every remaining diagonal entry vanishes inside a nonzero remaining
    block, the matrix is indefinite (the elimination stalls).  The same loop
    then finishes the rank: from then on it pivots on the first nonzero
    entry of the remaining rows (row i, column j, not necessarily on the
    diagonal) and stops when the remaining rows are zero; the rank is the
    pivot count.  Bareiss's identity holds for any pivot row and column, so
    every division stays exact.  A stalled matrix has psd False, only the
    minors before the stall, and pivot_indices None.

    Entries must be integers (TypeError otherwise) and a non-symmetric
    matrix raises ValueError.  The loop eliminates in its own int copy of
    the rows, so gram is never written.
    """
    a = [[*map(operator.index, row)] for row in gram]
    if a != [*map(list, zip(*a))]:
        raise ValueError("matrix is not symmetric")
    rows = list(range(len(a)))
    minors = []
    pivot_indices = []  # None once the elimination has stalled
    prev = 1  # the last pivot element, the minor over the pivots so far
    while rows:
        # the first remaining nonzero diagonal, looked for until a stall
        for pi in rows if pivot_indices is not None else ():
            d = a[pi][pi]
            if d:
                pj = pi
                minors.append(d)
                pivot_indices.append(pi)
                break
        else:
            # no diagonal pivot: zero remaining rows end the elimination,
            # and a nonzero remaining block is indefinite, so pivot off the
            # diagonal; the pivoted columns are zero in the remaining rows
            pi, pj = next(((i, j) for i in rows
                           for j, x in enumerate(a[i]) if x), (None, None))
            if pi is None:
                break
            d = a[pi][pj]
            pivot_indices = None
        rows.remove(pi)
        row = a[pi]
        # row-only update: symmetric pivots leave the remaining block
        # symmetric and equal to the congruence reduction; rows with a zero
        # in the pivot column are only rescaled to the new minor
        for i in rows:
            r = a[i]
            f = r[pj]
            if f:
                a[i] = [(d * x - f * y) // prev for x, y in zip(r, row)]
            elif d != prev:
                a[i] = [d * x // prev for x in r]
        prev = d
    psd = pivot_indices is not None and min(minors, default=1) > 0
    return len(a) - len(rows), psd, minors, pivot_indices
