"""Exact rational linear algebra: elimination, solving, symmetric rank/PSD.

Everything works over Fraction; no floating point anywhere.  The column
solver works on sparse dicts: the structure-constant columns each have a
private support coordinate, so elimination stays as sparse as its input,
and every step is an exact Fraction operation, so skipping the zeros changes
no result.  The other routines are dense; their matrices are desk scale.
"""

from __future__ import annotations

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


def kernel_basis(rows):
    """Basis of the right kernel of the matrix given by rows."""
    a, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -a[r][fc]
        basis.append(v)
    return basis


_ZERO = Fraction(0)


def build_column_solver(columns, keys):
    """Factor once, solve A x = v many times, where column j of A is columns[j].

    columns: list of {key: Fraction} sparse vectors over the index set keys.
    Returns solve(vec_dict) -> list of Fraction coefficients, or None if vec
    is not in the span.  Requires the columns to be linearly independent
    (checked: a column that reduces to zero raises ValueError).

    Each column is reduced against the earlier reduced columns and stored as
    (pivot key, reduced column scaled to 1 at the pivot, its expansion in
    the original columns); a reduced column vanishes at every earlier pivot.
    solve() reduces vec in the same order and sums the expansions.
    """
    pos = {k: i for i, k in enumerate(keys)}
    reduced = []
    for j, col in enumerate(columns):
        r = {k: Fraction(v) for k, v in col.items() if v}
        e = {j: Fraction(1)}
        for pivot, rr, ee in reduced:
            f = r.get(pivot)
            if f:
                _axpy(r, -f, rr)
                _axpy(e, -f, ee)
        if not r:
            raise ValueError("columns are linearly dependent")
        pivot = min(r, key=pos.__getitem__)
        pv = r[pivot]
        reduced.append((pivot, {k: v / pv for k, v in r.items()},
                        {i: v / pv for i, v in e.items()}))
    ncols = len(columns)

    def solve(vec):
        v = {k: c for k, c in vec.items() if c}
        x = {}
        for pivot, rr, ee in reduced:
            f = v.get(pivot)
            if f:
                _axpy(v, -f, rr)
                _axpy(x, f, ee)
        if v:
            return None
        return [x.get(j, _ZERO) for j in range(ncols)]

    return solve


def _axpy(y: dict, a, x: dict) -> None:
    """y += a*x on sparse dicts, dropping entries that cancel to zero."""
    for k, v in x.items():
        s = y.get(k, 0) + a * v
        if s:
            y[k] = s
        else:
            del y[k]


def symmetric_rank_psd(gram):
    """Exact rank, positive semidefiniteness and radical of a symmetric matrix.

    One pass of congruence (LDL-style) elimination with diagonal pivoting; the
    pivots double as the PSD certificate.  Returns
    (rank, psd, pivots, radical_basis) where radical vectors v satisfy Gv = 0.
    """
    nn = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    for i in range(nn):
        for j in range(nn):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    c = [[Fraction(1 if i == j else 0) for j in range(nn)] for i in range(nn)]
    remaining = list(range(nn))
    pivots = []
    psd = True
    while remaining:
        pi = next((i for i in remaining if a[i][i] != 0), None)
        if pi is None:
            # all remaining diagonal entries vanish; PSD forces the whole
            # remaining block to vanish
            block_zero = all(
                a[i][j] == 0 for i in remaining for j in remaining
            )
            if block_zero:
                break
            # indefinite: finish rank with general elimination
            psd = False
            sub = [[a[i][j] for j in remaining] for i in remaining]
            extra = matrix_rank(sub)
            rank = len(pivots) + extra
            radical = _radical_general(gram)
            return rank, False, pivots, radical
        d = a[pi][pi]
        if d < 0:
            psd = False
        pivots.append(d)
        remaining.remove(pi)
        # row-only update: the two symmetric cross terms cancel, so the
        # remaining block stays symmetric and equals the congruence reduction
        for j in remaining:
            if a[j][pi] == 0:
                continue
            f = a[j][pi] / d
            for k in range(nn):
                a[j][k] -= f * a[pi][k]
                c[j][k] -= f * c[pi][k]
    rank = len(pivots)
    radical = [c[i] for i in remaining]
    # congruence guarantees G v = 0 only when the block vanished; verify
    for v in radical:
        for row in gram:
            if sum(x * y for x, y in zip(row, v)) != 0:
                return rank, psd, pivots, _radical_general(gram)
    return rank, psd, pivots, radical


def _radical_general(gram):
    return kernel_basis([list(map(Fraction, row)) for row in gram])
