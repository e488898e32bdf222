"""Exact elimination checks: the fraction-free symmetric elimination against
the Fraction eliminations it replaced, and against exact determinants."""

import random
from fractions import Fraction
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from parafock import verma as vm
from parafock.rational_linalg import symmetric_rank_psd

PROPERTY = settings(derandomize=True, database=None, deadline=None)


# The Fraction row reduction that once finished a stalled elimination, kept
# as the rank reference.

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


# The Fraction LDL that symmetric_rank_psd replaced, kept as the reference
# for rank, PSD verdict and LDL pivots; a stall finishes the rank by rref.

def ldl_reference(gram):
    nn = len(gram)
    a = [[Fraction(x) for x in row] for row in gram]
    for i in range(nn):
        for j in range(nn):
            if a[i][j] != a[j][i]:
                raise ValueError("matrix is not symmetric")
    remaining = list(range(nn))
    pivots = []
    psd = True
    while remaining:
        pi = next((i for i in remaining if a[i][i] != 0), None)
        if pi is None:
            block_zero = all(
                a[i][j] == 0 for i in remaining for j in remaining
            )
            if block_zero:
                break
            sub = [[a[i][j] for j in remaining] for i in remaining]
            return len(pivots) + matrix_rank(sub), False, pivots
        d = a[pi][pi]
        if d < 0:
            psd = False
        pivots.append(d)
        remaining.remove(pi)
        for j in remaining:
            if a[j][pi] == 0:
                continue
            f = a[j][pi] / d
            for k in range(nn):
                a[j][k] -= f * a[pi][k]
    return len(pivots), psd, pivots


def dot(u, v):
    return sum(x * y for x, y in zip(u, v))


def det(rows):
    """Exact determinant by Fraction elimination."""
    a = [list(map(Fraction, r)) for r in rows]
    out = Fraction(1)
    for c in range(len(a)):
        pr = next((i for i in range(c, len(a)) if a[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            out = -out
        out *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return out


def ldl_pivots(minors):
    """The LDL pivots M_k / M_(k-1) rebuilt from the leading minors."""
    return [Fraction(x, y) for x, y in zip(minors, [1] + minors)]


def check_against_reference(gram):
    """symmetric_rank_psd agrees with the LDL reference and the rref rank;
    its minors are ints, and its pivot indices are rank distinct positions
    whose first k span the principal minor M_k; on a PSD matrix the
    elimination never returns to a skipped index, so they ascend.  Returns
    whether the elimination finished without a stall."""
    rank, psd, minors, pivot_indices = symmetric_rank_psd(gram)
    assert (rank, psd, ldl_pivots(minors)) == ldl_reference(gram)
    assert rank == matrix_rank(gram)
    assert all(type(x) is int for x in minors)
    if pivot_indices is None:
        return False
    assert len(set(pivot_indices)) == len(pivot_indices) == rank
    for k, minor in enumerate(minors, 1):
        lead = pivot_indices[:k]
        assert det([[gram[i][j] for j in lead] for i in lead]) == minor
    if psd:
        assert pivot_indices == sorted(pivot_indices)
    return True


@pytest.mark.parametrize("seed", range(20))
def test_symmetric_elimination_on_rank_deficient_gram(seed):
    rng = random.Random(seed)
    size = rng.randint(1, 8)
    width = rng.randint(0, size - 1)
    b = [[rng.randint(-3, 3) for _ in range(width)] for _ in range(size)]
    gram = [[dot(r, s) for s in b] for r in b]
    assert check_against_reference(gram)
    rank, psd = symmetric_rank_psd(gram)[:2]
    assert psd and rank <= width < size


@pytest.mark.parametrize("seed", range(40))
def test_symmetric_elimination_on_indefinite_matrices(seed):
    rng = random.Random(100 + seed)
    size = rng.randint(1, 7)
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i, size):
            x = rng.choice([0, 0, 0, -2, -1, 1, 3])
            gram[i][j] = gram[j][i] = x
    check_against_reference(gram)


@pytest.mark.parametrize("gram,rank,psd,stalls", [
    ([], 0, True, False),
    ([[0, 0], [0, 0]], 0, True, False),
    ([[0, 1], [1, 0]], 2, False, True),
    ([[1, 2], [2, 1]], 2, False, False),
    ([[1, 1, 1], [1, 1, 0], [1, 0, 1]], 3, False, True),
    # index 0 has a zero diagonal until index 1 is eliminated
    ([[0, 1, 0], [1, 1, 0], [0, 0, 1]], 3, False, False),
    ([[2, 1, 0], [1, 2, 1], [0, 1, 2]], 3, True, False),
])
def test_symmetric_elimination_explicit_cases(gram, rank, psd, stalls):
    got = symmetric_rank_psd(gram)
    assert got[:2] == (rank, psd)
    assert check_against_reference(gram) is not stalls


def test_symmetric_elimination_rejects_bad_input():
    with pytest.raises(ValueError):
        symmetric_rank_psd([[1, 2], [3, 4]])
    with pytest.raises(TypeError):
        symmetric_rank_psd([[Fraction(1, 2)]])


def test_real_gram_blocks_match_reference():
    """Gram blocks at the orders p <= 0, where the form can be indefinite;
    no block of these stalls."""
    indefinite = {}
    for p in (0, -1, -2, -3):
        for m, n in ((1, 1), (2, 1), (1, 2), (0, 2)):
            for blk in vm.gram_blocks_up_to(m, n, p, 4):
                rank, psd, pivots = ldl_reference(blk.matrix)
                assert (blk.rank, blk.psd, ldl_pivots(blk.minors)) \
                    == (rank, psd, pivots)
                assert blk.pivot_indices is not None
                indefinite[p] = indefinite.get(p, 0) + (not psd)
    assert indefinite == {0: 0, -1: 88, -2: 56, -3: 67}


def test_stalled_gram_block_finishes_its_rank():
    """At p = -1 the (1, 1, 2) block of (3, 0) stalls; the elimination
    finishes its rank in the same loop, and the rank is rref's."""
    blk = vm.gram_block_for_content(3, 0, -1, (1, 1, 2))
    assert blk.pivot_indices is None and not blk.psd
    assert blk.rank == matrix_rank(blk.matrix)
    assert not check_against_reference(blk.matrix)


@st.composite
def symmetric_matrices(draw):
    """Symmetric integer matrices of size <= 8; half of them have a zero
    diagonal, so every nonzero one of those stalls at once."""
    size = draw(st.integers(0, 8))
    zero_diagonal = draw(st.booleans())
    gram = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + zero_diagonal, size):
            gram[i][j] = gram[j][i] = draw(st.integers(-3, 3))
    return gram


@settings(PROPERTY, max_examples=300)
@given(symmetric_matrices())
def test_symmetric_elimination_property(gram):
    """On random symmetric matrices, stalled ones included, the rank is
    rref's and (rank, psd, LDL pivots) is the LDL reference's."""
    check_against_reference(gram)
