"""Pattern validity, enumeration and weights, cross-checked two ways."""

import itertools
from collections import Counter

import pytest

from parafock import patterns as gz
from parafock import symfunc as sf


def test_validate_examples():
    vac = gz.GZPattern.from_rows(1, 1, [[0, 0], [0]])
    assert not gz.pattern_failures(vac)
    bad = gz.GZPattern.from_rows(1, 1, [[0, 1], [0]])
    assert gz.pattern_failures(bad)
    assert "top_row" in gz.pattern_failures(bad)
    ok = gz.GZPattern.from_rows(1, 1, [[1, 1], [1]])
    assert not gz.pattern_failures(ok)


def test_validate_reports_condition_names():
    # theta step of 2 between the top rows
    p = gz.GZPattern.from_rows(1, 1, [[2, 0], [0]])
    assert gz.pattern_failures(p) == ["theta_steps"]
    # junction: zero above forces zero below
    p = gz.GZPattern.from_rows(1, 1, [[0, 2], [0]])
    fails = gz.pattern_failures(p)
    assert "hook_rows" in fails and "top_row" in fails
    p = gz.GZPattern.from_rows(2, 1, [[1, 1, 1], [1, 0], [1]])
    assert not gz.pattern_failures(p)


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        gz.GZPattern.from_rows(1, 1, [[0, 0]])


def test_pattern_weights_doubled():
    vac = gz.GZPattern.from_rows(1, 1, [[0, 0], [0]])
    assert gz.pattern_weight(vac, 2) == (-2, 2)
    a = gz.GZPattern.from_rows(1, 1, [[1, 0], [1]])
    assert gz.pattern_weight(a, 2) == (0, 2)
    b = gz.GZPattern.from_rows(1, 1, [[1, 0], [0]])
    assert gz.pattern_weight(b, 2) == (-2, 4)


def test_weight_parity_matches_p():
    for p in (1, 2, 3):
        for top in gz.top_rows_for_level(1, 2, 3):
            for pat in gz.fillings(top, 1, 2):
                assert all((w - p) % 2 == 0 for w in gz.pattern_weight(pat, p))


def test_top_rows_for_level():
    assert gz.top_rows_for_level(1, 1, 2) == [(1, 1), (2, 0)]
    assert gz.top_rows_for_level(1, 1, 2, max_width=1) == [(1, 1)]
    assert gz.top_rows_for_level(2, 2, 0) == [(0, 0, 0, 0)]


def test_partition_top_row_roundtrip():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0)):
        for d in range(7):
            for la in sf.hook_partitions(d, m, n):
                top = gz.top_row_from_partition(la, m, n)
                assert gz.top_row_is_valid(top, m, n), (la, top)
                assert gz.partition_from_top_row(top, m, n) == la
                assert sum(top) == d


def test_raise_and_lower():
    assert gz.raise_top_row((0, 0), 1, 1, 1) == (1, 0)
    assert gz.raise_top_row((0, 0), 1, 1, 2) is None
    assert gz.raise_top_row((1, 0), 1, 1, 2) == (1, 1)
    assert gz.lower_top_row((1, 0), 1, 1, 2) is None
    for m, n in ((1, 1), (2, 1), (1, 2)):
        for d in range(5):
            for top in gz.top_rows_for_level(m, n, d):
                for k in range(1, m + n + 1):
                    up = gz.raise_top_row(top, m, n, k)
                    if up is not None:
                        assert gz.lower_top_row(up, m, n, k) == top


def test_fillings_examples():
    assert len(gz.fillings((1, 0), 1, 1)) == 2
    assert len(gz.fillings((1, 1), 1, 1)) == 2
    assert len(gz.fillings((0, 0), 1, 1)) == 1
    with pytest.raises(ValueError):
        gz.fillings((0, 1), 1, 1)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (2, 0)])
def test_fillings_count_equals_schur_dimension(m, n):
    for d in range(7):
        for top in gz.top_rows_for_level(m, n, d):
            la = gz.partition_from_top_row(top, m, n)
            dim = sum(sf.super_schur(la, m, n).values())
            assert len(gz.fillings(top, m, n)) == dim, (m, n, top)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weight_multiset_matches_schur_monomials(m, n):
    p = 3
    off = [-p] * m + [p] * n
    for d in range(5):
        for top in gz.top_rows_for_level(m, n, d):
            la = gz.partition_from_top_row(top, m, n)
            expected = {}
            for e, c in sf.super_schur(la, m, n).items():
                w = tuple(o + 2 * x for o, x in zip(off, e))
                expected[w] = expected.get(w, 0) + c
            got = {}
            for pat in gz.fillings(top, m, n):
                w = gz.pattern_weight(pat, p)
                got[w] = got.get(w, 0) + 1
            assert got == expected


def _brute_force_fillings(top, m, n):
    """Independent generation: every bounded triangular array, filtered."""
    r = m + n
    hi = max(top) if top else 0
    row_lengths = list(range(r - 1, 0, -1))
    candidates = [
        list(itertools.product(range(hi + 1), repeat=ln)) for ln in row_lengths
    ]
    out = []
    for rows in itertools.product(*candidates):
        pat = gz.GZPattern.from_rows(m, n, (tuple(top),) + rows)
        if not gz.pattern_failures(pat):
            out.append(pat)
    return sorted(out, key=lambda p: p.rows)


@pytest.mark.parametrize("m,n,top", [
    (1, 1, (2, 0)), (1, 1, (1, 1)), (2, 1, (1, 1, 0)),
    (2, 1, (2, 1, 0)), (1, 2, (2, 1, 0)), (2, 2, (1, 1, 1, 0)),
])
def test_fillings_match_brute_force(m, n, top):
    fast = gz.fillings(top, m, n)
    slow = _brute_force_fillings(top, m, n)
    assert [p.rows for p in fast] == [p.rows for p in slow]
    assert len({p.rows for p in fast}) == len(fast)  # duplicate-free


def test_valid_subrows_are_prefixes_of_fillings():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for d in range(4):
            for top in gz.top_rows_for_level(m, n, d):
                subs = set(gz.valid_subrows(top, m, n))
                from_fillings = {pat.rows[1] for pat in gz.fillings(top, m, n)}
                assert subs == from_fillings, (m, n, top)


def test_serialization_roundtrip():
    pat = gz.GZPattern.from_rows(2, 1, [[2, 1, 1], [2, 1], [1]])
    rows = pat.to_rows()
    assert rows == [[2, 1, 1], [2, 1], [1]]
    assert gz.GZPattern.from_rows(2, 1, rows) == pat


SHIFT_CASES = [(1, 1, 2), (2, 1, 1), (1, 2, 3), (2, 2, 2), (0, 2, 1),
               (3, 0, 2), (0, 1, 3), (1, 0, 1)]


def _contents(m, n, level_max):
    """Every creation content of a pattern at levels <= level_max."""
    return {c for level in range(level_max + 1)
            for c in gz.pattern_counts(m, n, level)}


@pytest.mark.parametrize("m,n,p", SHIFT_CASES)
def test_vacuum_shift_roundtrip(m, n, p):
    contents = _contents(m, n, 4)
    assert (0,) * (m + n) in contents
    for c in contents:
        w = gz.doubled_weight(c, m, n, p)
        assert w == tuple(o + 2 * x for o, x in
                          zip([-p] * m + [p] * n, c))
    # the shift is injective, so a doubled weight names one content
    assert len({gz.doubled_weight(c, m, n, p) for c in contents}) \
        == len(contents)


@pytest.mark.parametrize("m,n,p", SHIFT_CASES)
def test_pattern_weight_is_shifted_content(m, n, p):
    for level in range(4):
        for top in gz.top_rows_for_level(m, n, level):
            for pat in gz.fillings(top, m, n):
                c = gz.pattern_content(pat)
                assert sum(c) == level and min(c) >= 0
                assert gz.pattern_weight(pat, p) == gz.doubled_weight(c, m, n, p)


@pytest.mark.parametrize("m,n,p", [c for c in SHIFT_CASES if c[1] >= 1])
def test_last_pair_value_is_last_doubled_weight_entry(m, n, p):
    """p + 2*(top row sum - second row sum) is the pattern's last doubled
    weight entry; diagonal_check reads its expected values from this."""
    r = m + n
    for level in range(5):
        for top in gz.top_rows_for_level(m, n, level, max_width=p):
            for pat in gz.fillings(top, m, n):
                second = sum(pat.row(r - 1)) if r > 1 else 0
                value = p + 2 * (sum(pat.row(r)) - second)
                assert value == gz.pattern_weight(pat, p)[-1]


def test_pattern_counts_by_width():
    assert gz.pattern_counts(1, 1, 2) == {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    assert gz.pattern_counts(1, 1, 2, max_width=1) == {(1, 1): 1, (0, 2): 1}
    for m, n, p in SHIFT_CASES:
        ch = sf.irreducible_character(m, n, p, 4)
        for level in range(5):
            expected = {c: k for c, k in ch.items() if sum(c) == level}
            assert gz.pattern_counts(m, n, level, max_width=p) == expected


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2),
                                 (3, 1), (3, 3)])
def test_pattern_counts_equal_a_direct_count(m, n):
    """The per-level table sums to a Counter over the fillings of the
    capped top rows, with the same key order."""
    for level in range(5):
        for max_width in [*range(1, level + 2), None]:
            want = Counter(
                gz.pattern_content(pat)
                for top in gz.top_rows_for_level(m, n, level, max_width)
                for pat in gz.fillings(top, m, n))
            got = gz.pattern_counts(m, n, level, max_width)
            assert list(got.items()) == list(want.items())


def test_pattern_counts_hands_out_fresh_counters():
    want = dict(gz.pattern_counts(2, 1, 3, max_width=2))
    for max_width in (2, None):
        got = gz.pattern_counts(2, 1, 3, max_width)
        got[next(iter(got))] += 5
        got[(9, 9, 9)] = 1
    assert gz.pattern_counts(2, 1, 3, max_width=2) == want
    assert (9, 9, 9) not in gz.pattern_counts(2, 1, 3)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_pattern_counts_at_width_at_least_level_read_as_none(m, n):
    """A top row's width is at most its level, so every max_width >= level
    gives the uncapped Counter, key order included, and each call hands out
    a Counter of its own."""
    for level in range(5):
        want = list(gz.pattern_counts(m, n, level).items())
        for max_width in range(level, level + 3):
            got = gz.pattern_counts(m, n, level, max_width)
            assert list(got.items()) == want
            assert got is not gz.pattern_counts(m, n, level)
            got[(9,) * (m + n)] = 1
        assert list(gz.pattern_counts(m, n, level, level).items()) == want
