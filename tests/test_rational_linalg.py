"""Exact elimination checks: the fraction-free symmetric elimination against
the Fraction LDL it replaced, and against exact ranks and determinants."""

import random
from fractions import Fraction

import pytest

from parafock import verma as vm
from parafock.rational_linalg import matrix_rank, symmetric_rank_psd


# The Fraction LDL that symmetric_rank_psd replaced, kept as the reference
# for rank, PSD verdict and pivots.

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


def check_against_reference(gram):
    """symmetric_rank_psd agrees with the LDL reference, and its pivot
    indices are rank distinct positions whose first k span a principal
    minor equal to the product of the first k pivots; on a PSD matrix the
    elimination never returns to a skipped index, so they ascend."""
    rank, psd, pivots, pivot_indices = symmetric_rank_psd(gram)
    assert (rank, psd, pivots) == ldl_reference(gram)
    assert rank == matrix_rank(gram)
    assert all(type(x) is Fraction for x in pivots)
    if pivot_indices is None:
        return False
    assert len(set(pivot_indices)) == len(pivot_indices) == rank
    minor = 1
    for k, d in enumerate(pivots, 1):
        minor *= d
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
                assert (blk.rank, blk.psd, blk.pivots) == (rank, psd, pivots)
                assert blk.pivot_indices is not None
                indefinite[p] = indefinite.get(p, 0) + (not psd)
    assert indefinite == {0: 0, -1: 88, -2: 56, -3: 67}
