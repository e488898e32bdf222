"""Induced-module oracle: straightening, Gram blocks, radical structure."""

import functools
import itertools
import json
import operator
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from parafock import patterns as gz
from parafock import symfunc as sf
from parafock import rational_linalg
from parafock import verma as vm
from parafock.rational_linalg import symmetric_rank_psd

PROPERTY = settings(derandomize=True, database=None, deadline=None)


def vac(m, n):
    return vm.PBWMonomial((0,) * (m + n), (0,) * len(vm.pair_slots(m, n)))


# -- the operator-word oracle ---------------------------------------------
# Operator-word rewriting, kept here as an independent reference for the
# engine's per-monomial recursion.  It uses the engine only for letter
# parities and its pair slots; creation letters are prepended to a monomial
# by insert_letter, the straightening on exponent tuples.

@functools.cache
def reduce_word(eng, ops):
    """Normal-order an operator word applied to the vacuum.

    ops is a tuple of ('+', a), ('-', a) and ('B', a, b) items in operator
    order, the vacuum at the right.  Returns {creation letter tuple: PPoly}.
    """
    idx = next((i for i in range(len(ops) - 1, -1, -1) if ops[i][0] != "+"),
               None)
    if idx is None:
        return {tuple(a for (_, a) in ops): vm.PPoly((1,))}
    op = ops[idx]
    par = eng.parity
    out = {}

    def acc(words, factor):
        for w, c in words.items():
            out[w] = out.get(w, vm.PPoly()) + factor * c

    if idx == len(ops) - 1:
        # lowering ops and off-diagonal B annihilate the vacuum
        if op[0] == "B" and op[1] == op[2]:
            acc(reduce_word(eng, ops[:idx]), vm.PPoly((0, 1)))
    else:
        nxt = ops[idx + 1]
        c = nxt[1]
        swapped = ops[:idx] + (nxt, op) + ops[idx + 2:]
        if op[0] == "-":
            a = op[1]
            acc(reduce_word(eng, swapped), -1 if par(a) * par(c) else 1)
            acc(reduce_word(eng, ops[:idx] + (("B", a, c),) + ops[idx + 2:]), 1)
        else:
            a, b = op[1], op[2]
            odd = (par(a) + par(b)) * par(c) % 2
            acc(reduce_word(eng, swapped), -1 if odd else 1)
            if a == c:
                extra = 2 if par(b) * par(c) else -2
                acc(reduce_word(eng, ops[:idx] + (("+", b),) + ops[idx + 2:]),
                    extra)
    return {w: v for w, v in out.items() if not v.is_zero()}


def insert_letter(eng, a, mono):
    """c_a^+ mono straightened into canonical monomials, as
    {monomial: int}, on exponent tuples: the letter moves past each smaller
    leading single, leaving a bracket factor behind."""
    singles = mono.singles
    s1 = next((i + 1 for i, e in enumerate(singles) if e), None)
    if s1 is None or a <= s1:
        new = list(singles)
        new[a - 1] += 1
        return {vm.PBWMonomial(tuple(new), mono.pairs): 1}
    tail_singles = list(singles)
    tail_singles[s1 - 1] -= 1
    tail = vm.PBWMonomial(tuple(tail_singles), mono.pairs)
    sign = -1 if (eng.parity(a) * eng.parity(s1)) % 2 else 1
    out = {}
    for mono2, c in insert_letter(eng, a, tail).items():
        new = list(mono2.singles)
        new[s1 - 1] += 1
        key = vm.PBWMonomial(tuple(new), mono2.pairs)
        out[key] = out.get(key, 0) + sign * c
    for mono2, c in insert_pair(eng, (s1, a), tail).items():
        out[mono2] = out.get(mono2, 0) - sign * c
    return {k: v for k, v in out.items() if v}


def insert_pair(eng, pr, mono):
    """Prepend a bracket factor, sign-commuting it to its canonical slot."""
    idx = eng.slot_index[pr]
    mixed = vm.is_mixed_pair(pr, eng.m)
    if mixed and mono.pairs[idx]:
        return {}  # odd factor squares to zero
    sign = 1
    if mixed:
        crossed = sum(e for s, e in enumerate(mono.singles)
                      if eng.parity(s + 1))
        crossed += sum(e for q, e in enumerate(mono.pairs)
                       if q < idx and vm.is_mixed_pair(eng.slots[q], eng.m))
        if crossed % 2:
            sign = -1
    new = list(mono.pairs)
    new[idx] += 1
    return {vm.PBWMonomial(mono.singles, tuple(new)): sign}


def engine_insert_letter(eng, a, mono):
    """The engine's packed straightening image c_a^+ mono, unpacked."""
    return {eng._mono(key): c
            for key, c in eng._insert_letter(a, eng._key(mono)).items()}


@functools.cache
def straighten(eng, word):
    """Expand a creation-letter word into canonical monomials (int coeffs),
    by the reference straightening, checking the engine's image of every
    letter against it."""
    if not word:
        return {vac(eng.m, eng.n): 1}
    out = {}
    for mono, c in straighten(eng, word[1:]).items():
        image = insert_letter(eng, word[0], mono)
        assert engine_insert_letter(eng, word[0], mono) == image
        for mono2, c2 in image.items():
            out[mono2] = out.get(mono2, 0) + c * c2
    return {k: v for k, v in out.items() if v}


@functools.cache
def monomial_words(eng, mono):
    """Expansion of a monomial into signed creation-letter words: the singles
    in order, then [c_i, c_j] = c_i c_j - (-1)^(p(i)p(j)) c_j c_i per factor."""
    letters = tuple(a for a, e in enumerate(mono.singles, start=1)
                    for _ in range(e))
    alternatives = [[(1, letters)]]
    for (i, j), e in zip(eng.slots, mono.pairs):
        sgn = -1 if eng.parity(i) * eng.parity(j) else 1
        alternatives.extend([[(1, (i, j)), (-sgn, (j, i))]] * e)
    out = []
    for combo in itertools.product(*alternatives):
        coeff, word = 1, ()
        for c, w in combo:
            coeff *= c
            word += w
        out.append((coeff, word))
    return tuple(out)


def word_pair(eng, m1, m2):
    """Gram entry: reverse one side's words into lowering ops and reduce."""
    total = vm.PPoly()
    for c1, w1 in monomial_words(eng, m1):
        lowering = tuple(("-", a) for a in reversed(w1))
        for c2, w2 in monomial_words(eng, m2):
            ops = lowering + tuple(("+", a) for a in w2)
            total = total + (c1 * c2) * reduce_word(eng, ops).get((), vm.PPoly())
    return total


def test_pbw_counts_small():
    assert len(vm.pbw_basis(1, 1, 0)) == 1
    assert len(vm.pbw_basis(1, 1, 1)) == 2
    assert len(vm.pbw_basis(1, 1, 2)) == 4
    mon = vm.pbw_basis(1, 1, 2)
    assert vm.PBWMonomial((0, 0), (1,)) in mon  # the bracket factor


def test_mixed_pair_exponent_capped():
    for mono in vm.pbw_basis(1, 1, 6):
        assert mono.pairs[0] in (0, 1)
    # fermion-fermion pair (1,2) of (2,0) may repeat
    assert any(mo.pairs[0] == 2 for mo in vm.pbw_basis(2, 0, 4))


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_pbw_counts_match_weight_series(m, n):
    ch = sf.verma_character(m, n, 5)
    assert [len(vm.pbw_basis(m, n, level)) for level in range(6)] \
        == [sum(c for e, c in ch.items() if sum(e) == level)
            for level in range(6)]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_pbw_weights_match_weight_series(m, n):
    ch = sf.verma_character(m, n, 4)
    counts = {}
    for level in range(5):
        for mono in vm.pbw_basis(m, n, level):
            c = mono.content(m, n)
            counts[c] = counts.get(c, 0) + 1
    assert counts == ch


def test_act_on_vacuum_rules():
    eng = vm.get_engine(1, 1)
    one = {vac(1, 1): Fraction(1)}
    p = 5
    v1 = eng.act(("c", 1, "+"), one, p)
    assert v1 == {vm.PBWMonomial((1, 0), (0,)): Fraction(1)}
    assert eng.act(("c", 1, "-"), v1, p) == {vac(1, 1): Fraction(p)}
    assert eng.act(("c", 2, "-"), v1, p) == {}
    assert eng.act(("h", 1), one, p) == {vac(1, 1): Fraction(-p, 2)}
    assert eng.act(("h", 2), one, p) == {vac(1, 1): Fraction(p, 2)}
    assert eng.act(("bb", 1, 2, "-", "-"), one, p) == {}


def test_act_two_step_straightening():
    eng = vm.get_engine(1, 1)
    p = 7
    one = {vac(1, 1): Fraction(1)}
    v1 = eng.act(("c", 1, "+"), one, p)
    v2 = eng.act(("c", 1, "+"), v1, p)
    lowered = eng.act(("c", 1, "-"), v2, p)
    assert lowered == {vm.PBWMonomial((1, 0), (0,)): Fraction(2 * p - 2)}


def test_act_creates_bracket_factor():
    eng = vm.get_engine(1, 1)
    p = 3
    one = {vac(1, 1): Fraction(1)}
    v2 = eng.act(("c", 2, "+"), one, p)
    v12 = eng.act(("c", 1, "+"), v2, p)       # c1 c2 |0>, already ordered
    assert v12 == {vm.PBWMonomial((1, 1), (0,)): Fraction(1)}
    v21 = eng.act(("c", 2, "+"), eng.act(("c", 1, "+"), one, p), p)
    # c2 c1 = c1 c2 - [c1, c2]
    assert v21 == {vm.PBWMonomial((1, 1), (0,)): Fraction(1),
                   vm.PBWMonomial((0, 0), (1,)): Fraction(-1)}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0)])
def test_word_expansion_straightens_back(m, n):
    """Expanding a monomial into words and renormalizing is the identity."""
    eng = vm.get_engine(m, n)
    for level in range(5):
        for mono in vm.pbw_basis(m, n, level):
            acc: dict = {}
            for coeff, word in monomial_words(eng, mono):
                for mono2, c in straighten(eng, word).items():
                    acc[mono2] = acc.get(mono2, 0) + coeff * c
            acc = {k: v for k, v in acc.items() if v}
            assert acc == {mono: 1}, mono


def test_weight_grading_of_action():
    eng = vm.get_engine(2, 1)
    p = 2
    for mono in vm.pbw_basis(2, 1, 3):
        v = {mono: Fraction(1)}
        for k in range(1, 4):
            img = eng.act(("h", k), v, p)
            weight = gz.doubled_weight(mono.content(2, 1), 2, 1, p)
            expect = Fraction(weight[k - 1], 2)
            assert img == ({mono: expect} if expect else {})


def test_norm_polynomials():
    eng = vm.get_engine(1, 1)
    sq = eng.pair_poly(vm.PBWMonomial((2, 0), (0,)), vm.PBWMonomial((2, 0), (0,)))
    assert sq == vm.PPoly([0, -2, 2])  # 2p(p-1)
    eng01 = vm.get_engine(0, 1)
    b2 = vm.PBWMonomial((2,), ())
    assert eng01.pair_poly(b2, b2) == vm.PPoly([0, 2])  # 2p
    eng21 = vm.get_engine(2, 1)
    b12 = vm.PBWMonomial((0, 0, 0), (1, 0, 0))
    assert eng21.pair_poly(b12, b12) == vm.PPoly([0, 4])  # 4p


def test_gram_level_one_diagonal_p():
    for m, n in ((1, 1), (2, 1), (1, 2)):
        for p in (1, 2, 3):
            for content in vm.level_contents(m, n, 1):
                blk = vm.gram_block_for_content(m, n, p, content)
                assert blk.matrix == [[Fraction(p)]]
    blk = vm.gram_block_for_content(1, 1, 2, (0, 0))
    assert blk.matrix == [[Fraction(1)]] and blk.rank == 1


def test_gram_block_by_doubled_weight():
    blk = vm.gram_block_for_content(1, 1, 2, (0, 1))
    assert blk.weight == (-2, 4)
    assert blk.matrix == [[Fraction(2)]]


def test_gram_symmetric_and_weight_homogeneous():
    eng = vm.get_engine(2, 1)
    basis = vm.pbw_basis(2, 1, 3)
    for a in basis:
        for b in basis:
            pab = eng.pair_poly(a, b)
            assert pab == eng.pair_poly(b, a)
            if a.content(2, 1) != b.content(2, 1):
                assert pab.is_zero()


def test_action_respects_structure_constants():
    """X(Yv) - (-1)^(|X||Y|) Y(Xv) must equal the bracket's action."""
    from parafock import algebra as alg
    from test_algebra import bracket

    rng = random.Random(3)
    m, n, p = 1, 1, 2
    eng = vm.get_engine(m, n)
    basis = alg.structure_constants(m, n)
    labels = basis.labels
    monos = vm.pbw_basis(m, n, 0) + vm.pbw_basis(m, n, 1) + vm.pbw_basis(m, n, 2)

    def add(u, v, c=Fraction(1)):
        out = dict(u)
        for mo, cv in v.items():
            cur = out.get(mo, Fraction(0)) + c * cv
            if cur:
                out[mo] = cur
            else:
                out.pop(mo, None)
        return out

    for _ in range(12):
        x = rng.choice(labels)
        y = rng.choice(labels)
        v = {rng.choice(monos): Fraction(rng.randint(1, 3))}
        sgn = -1 if (alg.label_parity(x, m) * alg.label_parity(y, m)) % 2 else 1
        lhs = add(eng.act(x, eng.act(y, v, p), p),
                  eng.act(y, eng.act(x, v, p), p), Fraction(-sgn))
        rhs: dict = {}
        for lab, c in bracket(basis, x, y).items():
            rhs = add(rhs, eng.act(lab, v, p), c)
        assert lhs == rhs, (x, y, v)


def test_act_unknown_label():
    eng = vm.get_engine(1, 1)
    with pytest.raises(ValueError):
        eng.act(("z", 1), {vac(1, 1): Fraction(1)}, 1)


def test_contravariance_random_vectors():
    rng = random.Random(11)
    eng = vm.get_engine(1, 2)
    p = 3
    basis2 = vm.pbw_basis(1, 2, 2)
    basis3 = vm.pbw_basis(1, 2, 3)

    def rand_vec(basis):
        return {mo: Fraction(rng.randint(-3, 3)) for mo in basis}

    def pair(u, v):
        tot = Fraction(0)
        for a, ca in u.items():
            for b, cb in v.items():
                tot += ca * cb * eng.pair_poly(a, b).evaluate(p)
        return tot

    for j in (1, 2, 3):
        for _ in range(3):
            u = rand_vec(basis2)
            v = rand_vec(basis3)
            lhs = pair(eng.act(("c", j, "+"), u, p), v)
            rhs = pair(u, eng.act(("c", j, "-"), v, p))
            assert lhs == rhs


def test_radical_at_order_one():
    blk = vm.gram_block_for_content(1, 1, 1, (2, 0))
    assert blk.size == 1 and blk.rank == 0 and blk.psd
    assert blk.basis == [vm.PBWMonomial((2, 0), (0,))]
    assert blk.matrix == [[0]] and blk.minors == [] and blk.pivot_indices == []
    blk2 = vm.gram_block_for_content(1, 1, 1, (1, 1))
    assert (blk2.size, blk2.rank, blk2.psd) == (2, 1, True)
    assert blk2.minors == [4]
    # the radical vector pairs to zero against everything in the block
    eng = vm.get_engine(1, 1)
    vec = dict(zip(blk2.basis, (1, -2)))
    for mono in blk2.basis:
        assert sum(c * eng.pair_poly(mo, mono).evaluate(1)
                   for mo, c in vec.items()) == 0


@pytest.mark.parametrize("m,n,p,lmax", [
    (1, 1, 1, 4), (1, 1, 2, 4), (2, 1, 1, 3), (1, 2, 2, 3),
])
def test_ranks_match_irreducible_character(m, n, p, lmax):
    dims = {rec.weight: rec.rank
            for rec in vm.gram_records_up_to(m, n, p, lmax)}
    expected = {gz.doubled_weight(e, m, n, p): c for e, c in
                sf.irreducible_character(m, n, p, lmax).items()}
    assert {w: r for w, r in dims.items() if r} == expected


def test_verma_block_sizes_match_character():
    ch = sf.verma_character(1, 2, 4)
    for level in range(5):
        for content in vm.level_contents(1, 2, level):
            blk = vm.gram_block_for_content(1, 2, 1, content)
            assert blk.size == ch[content]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_positive_semidefinite_full_range(m, n):
    for p in (1, 2, 3):
        for blk in vm.gram_blocks_up_to(m, n, p, 4):
            assert blk.psd, (m, n, p, blk.weight)
            assert all(minor > 0 for minor in blk.minors)


def test_rank_independent_of_basis_order():
    for content in vm.level_contents(1, 1, 3):
        blk = vm.gram_block_for_content(1, 1, 2, content)
        flipped = [[x.numerator for x in reversed(row)]
                   for row in reversed(blk.matrix)]
        rank, psd, *_ = symmetric_rank_psd(flipped)
        assert rank == blk.rank and psd == blk.psd


def orbit_check(check, m, n, p, level_max):
    """check's report on the orbit walk's records, as gram reads it."""
    return check(m, n, p, level_max,
                 list(vm.gram_records_up_to(m, n, p, level_max)))


def block_record(blk, indices):
    """The record of one block, the Cartan identity checked for each index
    in indices on its pivot monomials: what gram_records_up_to reads of an
    orbit representative's block, built here from the block's fields."""
    pivots = blk.pivot_indices
    return vm.GramRecord(
        blk.content, blk.weight, blk.size, blk.rank, blk.psd,
        None if pivots is None else len(pivots),
        pivots is not None and vm.get_engine(blk.m, blk.n).cartan(
            blk.content, tuple(pivots), tuple(indices)))


def walk_record(m, n, p, content):
    """The orbit walk's record of one content."""
    return next(rec for rec in vm.gram_records_up_to(m, n, p, sum(content))
                if rec.content == content)


def test_diagonal_check():
    rep = orbit_check(vm.diagonal_check, 1, 1, 2, 4)
    assert rep["ok"] and rep["checked"] > 0
    rep = orbit_check(vm.diagonal_check, 2, 1, 1, 2)
    assert rep["ok"]
    rep = orbit_check(vm.diagonal_check, 1, 2, 3, 3)
    assert rep["ok"]


def test_diagonal_check_rejects_n0():
    with pytest.raises(ValueError):
        orbit_check(vm.diagonal_check, 2, 0, 1, 2)


def test_diagonal_check_reports_a_mismatch(monkeypatch):
    """One pivot too many, or a wrong diagonal value, on the weight space
    (1,1,1) of (1,2) at p = 2 (three patterns, value 4) is a got/expected
    failure there; checked counts the values read."""
    m, n, p, level_max = 1, 2, 2, 3
    records = list(vm.gram_records_up_to(m, n, p, level_max))
    at = next(i for i, rec in enumerate(records) if rec.content == (1, 1, 1))
    rec = records[at]
    assert (rec.weight, rec.pivot_count) == ((0, 4, 4), 3)
    bumped = list(records)
    bumped[at] = rec._replace(pivot_count=4)
    assert vm.diagonal_check(m, n, p, level_max, bumped) == {
        "m": 1, "n": 2, "p": 2, "level_max": 3, "checked": 29, "ok": False,
        "failures": [{"weight": [0, 4, 4], "got": ["4"] * 4,
                      "expected": ["4"] * 3}]}
    values = vm.diagonal_values
    monkeypatch.setattr(vm, "diagonal_values", lambda r: (
        [Fraction(9, 2)] * r.pivot_count if r.content == (1, 1, 1)
        else values(r)))
    assert vm.diagonal_check(m, n, p, level_max, records) == {
        "m": 1, "n": 2, "p": 2, "level_max": 3, "checked": 28, "ok": False,
        "failures": [{"weight": [0, 4, 4], "got": ["9/2"] * 3,
                      "expected": ["4"] * 3}]}


def test_radical_cut_check():
    rep = orbit_check(vm.radical_cut_check, 1, 1, 1, 2)
    assert rep["ok"] and rep["cut_witness"] is not None
    rep = orbit_check(vm.radical_cut_check, 1, 1, 2, 2)
    assert rep["ok"] and rep["cut_expected"] is False
    rep = orbit_check(vm.radical_cut_check, 1, 1, 2, 3)
    assert rep["ok"] and rep["cut_witness"]["level"] == 3
    rep = orbit_check(vm.radical_cut_check, 1, 1, 1, 2)
    assert rep["cut_witness"] == {"level": 2, "weight": [1, 3],
                                  "wide_count": 2, "capped_count": 1}


def test_radical_cut_check_reports_mismatches_by_doubled_weight():
    records = list(vm.gram_records_up_to(1, 1, 2, 2))
    bumped = [rec._replace(rank=rec.rank + 1)
              if rec.content == (1, 1) else rec for rec in records]
    rep = vm.radical_cut_check(1, 1, 2, 2, bumped)
    assert not rep["ok"]
    assert rep["failures"] == [
        {"level": 2, "weight": [0, 4], "rank": 3, "patterns": 2}]
    missing = [rec for rec in records if rec.content != (1, 1)]
    rep = vm.radical_cut_check(1, 1, 2, 2, missing)
    assert rep["failures"] == [
        {"level": 2, "weight": [0, 4], "rank": 0, "patterns": 2}]


def radical_cut_reference(m, n, p, level_max, records):
    """radical_cut_check's report from its definition: a fresh
    pattern_counts per level and width for the ranks and the witness, and
    the nonempty hook partitions of first part p + 1 for the expected cut."""
    def weight(content):
        return list(gz.doubled_weight(content, m, n, p))

    failures = []
    witness = None
    for level in range(level_max + 1):
        capped = gz.pattern_counts(m, n, level, max_width=p)
        wide = gz.pattern_counts(m, n, level, max_width=p + 1)
        ranks = {rec.content: rec.rank for rec in records
                 if sum(rec.content) == level}
        failures += [{"level": level, "weight": weight(c), "rank": rank,
                      "patterns": capped[c]}
                     for c, rank in ranks.items() if rank != capped[c]]
        failures += [{"level": level, "weight": weight(c), "rank": 0,
                      "patterns": cnt}
                     for c, cnt in capped.items() if c not in ranks]
        wider = [c for c in sorted(wide) if wide[c] > capped[c]]
        if witness is None and wider:
            witness = {"level": level, "weight": weight(wider[0]),
                       "wide_count": wide[wider[0]],
                       "capped_count": capped[wider[0]]}
    cut_expected = any(len(la) > 0 and la[0] == p + 1
                       for level in range(level_max + 1)
                       for la in sf.hook_partitions(level, m, n))
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "failures": failures, "cut_witness": witness,
            "cut_expected": cut_expected,
            "ok": not failures and (witness is not None) == cut_expected}


@pytest.mark.parametrize("m,n,level_max", [
    (2, 2, 4), (3, 1, 4), (1, 2, 5), (0, 3, 4), (3, 0, 4)])
def test_radical_cut_check_equals_its_definition(m, n, level_max):
    """At every order from -2 to level_max + 2, on the walk's records and on
    records with one rank bumped and one content missing, the report equals
    the one built from hook partitions and pattern_counts.  At p = -1 the
    vacuum is a witness, but the empty partition, of width 0 = p + 1, is no
    expected cut."""
    for p in range(-2, level_max + 3):
        records = list(vm.gram_records_up_to(m, n, p, level_max))
        last = records[-1]
        changed = [rec._replace(rank=rec.rank + 1) for rec in records[:1]] \
            + records[1:-1]
        for recs in (records, changed):
            assert vm.radical_cut_check(m, n, p, level_max, recs) \
                == radical_cut_reference(m, n, p, level_max, recs)
        assert last.content not in {rec.content for rec in changed}
        if p == -1:
            rep = vm.radical_cut_check(m, n, p, level_max, records)
            assert rep["cut_witness"]["level"] == 0
            assert not rep["cut_expected"]


@pytest.mark.parametrize("m,n", [(2, 1), (1, 2)])
def test_pair_polynomials_have_integer_coefficients(m, n):
    eng = vm.get_engine(m, n)
    for level in range(5):
        basis = vm.pbw_basis(m, n, level)
        for a in basis:
            for b in basis:
                assert all(type(c) is int for c in eng.pair_poly(a, b).coeffs)


def test_ppoly_evaluates_exactly_at_fractions():
    poly = vm.PPoly([3, -2, 5])
    for p in (0, 2, -3, Fraction(1, 3), Fraction(-7, 4)):
        assert poly.evaluate(p) == 3 - 2 * Fraction(p) + 5 * Fraction(p) ** 2
    assert vm.PPoly().evaluate(Fraction(1, 3)) == 0


def trimmed(coeffs):
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return out


coefficient_lists = st.lists(st.integers(-50, 50), max_size=6)


@settings(max_examples=200)
@given(coefficient_lists, coefficient_lists, st.integers(-9, 9))
def test_ppoly_arithmetic_keeps_the_normal_form(a, b, k):
    """Scaling by the ints -1, 0, 1 and k (on either side), negation,
    addition, subtraction and multiplication agree with plain list
    arithmetic, leave no trailing zero coefficient, and equal and hash like
    a PPoly built afresh from the same coefficients."""
    x, y = vm.PPoly(a), vm.PPoly(b)
    width = max(len(a), len(b))
    pa, pb = a + [0] * (width - len(a)), b + [0] * (width - len(b))
    product = [0] * (len(a) + len(b))
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            product[i + j] += c * d
    cases = [(x * s, [s * c for c in a]) for s in (-1, 0, 1, k)]
    cases += [(s * x, [s * c for c in a]) for s in (-1, 0, 1, k)]
    cases += [(-x, [-c for c in a]),
              (x + y, [c + d for c, d in zip(pa, pb)]),
              (x - y, [c - d for c, d in zip(pa, pb)]),
              (x * y, product)]
    for got, plain in cases:
        assert list(got.coeffs) == trimmed(plain)
        assert not got.coeffs or got.coeffs[-1]
        fresh = vm.PPoly(plain)
        assert got == fresh and hash(got) == hash(fresh)
    assert x * 1 is x and 1 * x is x


def test_values_take_the_order_type():
    """An integer order gives ints, so a Gram block at p = 2 holds no
    Fraction; a Fraction order gives exact Fractions."""
    poly = vm.PPoly((3, -2, 5))
    assert type(poly.evaluate(2)) is int and poly.evaluate(2) == 19
    value = poly.evaluate(Fraction(1, 3))
    assert type(value) is Fraction and value == Fraction(26, 9)
    for blk in vm.gram_blocks_up_to(2, 1, 2, 4):
        assert all(type(x) is int for row in blk.matrix for x in row)


def reference_act(eng, label, vector, p):
    """Word-by-word action: expand every monomial into creation words, prepend
    the label's operator words, reduce, evaluate at p and straighten."""
    par = eng.parity
    if label[0] == "c":
        words = [(Fraction(1), ((label[2], label[1]),))]
    elif label[0] == "h":
        k = label[1]
        words = [(Fraction(1, 2), (("+", k), ("-", k))),
                 (Fraction(1 if par(k) else -1, 2), (("-", k), ("+", k)))]
    else:
        _, a, b, s1, s2 = label
        sgn = -1 if par(a) * par(b) else 1
        words = [(Fraction(1), ((s1, a), (s2, b))),
                 (Fraction(-sgn), ((s2, b), (s1, a)))]
    out: dict = {}
    for mono, coeff in vector.items():
        for mc, mw in monomial_words(eng, mono):
            tail = tuple(("+", a) for a in mw)
            for oc, ops in words:
                for word, poly in reduce_word(eng, ops + tail).items():
                    scale = coeff * mc * oc * poly.evaluate(p)
                    for mono2, c2 in straighten(eng, word).items():
                        out[mono2] = out.get(mono2, 0) + scale * c2
    return {k: v for k, v in out.items() if v}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)])
def test_act_matches_word_by_word_reference(m, n):
    from parafock import algebra as alg

    r = m + n
    labels = alg.basis_labels(m, n) + [("h", k) for k in range(1, r + 1)] \
        + [("bb", r, r, "-", "+")]
    eng = vm.get_engine(m, n)
    monos = [mo for level in range(4) for mo in vm.pbw_basis(m, n, level)]
    for p in (1, 2, 3, Fraction(1, 3)):
        for label in labels:
            for mono in monos:
                v = {mono: Fraction(1)}
                assert eng.act(label, v, p) == reference_act(eng, label, v, p), \
                    (label, mono, p)


def test_level_basis_enumerates_once_and_hands_out_fresh_lists(monkeypatch):
    real = vm.pbw_basis
    calls = []

    def counting(m, n, level):
        calls.append((m, n, level))
        return real(m, n, level)

    eng = vm.VermaEngine(2, 1)
    monkeypatch.setattr(vm, "pbw_basis", counting)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    contents = vm.level_contents(2, 1, 3)
    bases = [vm.basis_for_content(2, 1, c) for c in contents]
    assert calls == [(2, 1, 3)]
    full = real(2, 1, 3)
    for c, basis in zip(contents, bases):
        assert basis == [mo for mo in full if mo.content(2, 1) == c]
    first = contents[0]
    contents.clear()
    bases[0].clear()
    assert vm.level_contents(2, 1, 3)[0] == first
    assert vm.basis_for_content(2, 1, first)
    assert calls == [(2, 1, 3)]


@pytest.mark.parametrize("m,n,level_max", [
    (1, 1, 5), (2, 1, 5), (1, 2, 5), (0, 2, 5),
    (2, 2, 4), (3, 0, 4), (1, 0, 4), (0, 1, 4),
])
def test_pair_poly_matches_word_oracle(m, n, level_max):
    """The Shapovalov recursion gives the word oracle's polynomial on every
    same-content pair, both orders, computed on a fresh engine."""
    eng = vm.VermaEngine(m, n)
    checked = 0
    for level in range(level_max + 1):
        for basis in eng.level_basis(level).values():
            for a in basis:
                for b in basis:
                    assert eng.pair_poly(a, b) == word_pair(eng, a, b), (a, b)
                    checked += 1
    assert checked


PROPERTY_DOMAINS = [(1, 1), (2, 1), (1, 2), (0, 2), (2, 0)]
PROPERTY_ORDERS = [1, 2, 3, Fraction(1, 3)]


@st.composite
def letter_and_monomial(draw):
    """(m, n, letter a, monomial X at level <= 3)."""
    m, n = draw(st.sampled_from(PROPERTY_DOMAINS))
    a = draw(st.integers(1, m + n))
    level = draw(st.integers(0, 3))
    return m, n, a, draw(st.sampled_from(vm.pbw_basis(m, n, level)))


def shifted(content, a, step):
    out = list(content)
    out[a - 1] += step
    return tuple(out)


@PROPERTY
@given(letter_and_monomial(), st.data())
def test_contravariance_of_creation_and_annihilation(case, data):
    """<c_a^+ X, Y> == <X, c_a^- Y> for Y of content content(X) + e_a."""
    m, n, a, x = case
    content = shifted(x.content(m, n), a, 1)
    y = data.draw(st.sampled_from(vm.basis_for_content(m, n, content)))
    p = data.draw(st.sampled_from(PROPERTY_ORDERS))
    eng = vm.get_engine(m, n)
    up = eng.act(("c", a, "+"), {x: Fraction(1)}, p)
    down = eng.act(("c", a, "-"), {y: Fraction(1)}, p)
    lhs = sum(c * eng.pair_poly(z, y).evaluate(p) for z, c in up.items())
    rhs = sum(eng.pair_poly(x, z).evaluate(p) * c for z, c in down.items())
    assert lhs == rhs


@PROPERTY
@given(letter_and_monomial(), st.sampled_from("+-"),
       st.sampled_from(PROPERTY_ORDERS))
def test_creation_and_annihilation_shift_the_content(case, sign, p):
    """Every monomial of c_a^(+/-) X has content content(X) +/- e_a."""
    m, n, a, x = case
    expected = shifted(x.content(m, n), a, 1 if sign == "+" else -1)
    image = vm.get_engine(m, n).act(("c", a, sign), {x: Fraction(1)}, p)
    assert all(mono.content(m, n) == expected for mono in image)


# -- Gram-Schmidt reference for the diagonal values --------------------------
# Gram-Schmidt against the block form, as diagonal_values computed it before
# it read the elimination, with diagonal pivoting: each step keeps the first
# remaining basis vector whose part orthogonal to the kept ones has a
# nonzero norm.  On a semidefinite form that is the basis order; on an
# indefinite one an isotropic vector outside the radical waits for a later
# step instead of being dropped.

def orthogonalize(block):
    """Exact Gram-Schmidt with diagonal pivoting against the block form;
    returns the coordinate vectors kept, their squared norms and the basis
    index of each."""
    g = block.matrix
    nb = block.size

    def form(u, v):
        return sum(u[i] * sum(g[i][j] * v[j] for j in range(nb) if v[j])
                   for i in range(nb) if u[i])

    rest = {i: [Fraction(int(i == j)) for j in range(nb)] for i in range(nb)}
    kept: list[list[Fraction]] = []
    norms: list[Fraction] = []
    indices: list[int] = []
    while (i := next((i for i, u in rest.items() if form(u, u)),
                     None)) is not None:
        v = rest.pop(i)
        nv = form(v, v)
        kept.append(v)
        norms.append(nv)
        indices.append(i)
        for j, u in list(rest.items()):
            c = form(v, u)
            if c:
                rest[j] = [x - c / nv * y for x, y in zip(u, v)]
    return kept, norms, indices


def test_gram_schmidt_reference_pivots_past_an_isotropic_vector():
    """At p = -1 the first basis vector of the (1, 2) block of (1, 1) is
    isotropic but outside the radical: both the reference and the
    elimination take the second vector first and keep both."""
    blk = vm.gram_block_for_content(1, 1, -1, (1, 2))
    assert blk.matrix == [[0, 4], [4, 2]]
    assert orthogonalize(blk)[2] == blk.pivot_indices == [1, 0]


def reference_diagonal_values(block):
    r = block.m + block.n
    label = ("bb", r, r, "-", "+")
    eng = vm.get_engine(block.m, block.n)
    kept, norms, _ = orthogonalize(block)
    values = []
    for u, nu in zip(kept, norms):
        image = eng.act(label, {mo: c for mo, c in zip(block.basis, u) if c},
                        block.p)
        w = [image.get(mo, Fraction(0)) for mo in block.basis]
        num = sum(u[i] * sum(block.matrix[i][j] * w[j]
                             for j in range(block.size))
                  for i in range(block.size))
        values.append(num / nu)
    return sorted(values)


@pytest.mark.parametrize("m,n,level_max", [
    (1, 1, 6), (2, 1, 5), (1, 2, 5), (0, 2, 5), (2, 2, 4),
])
def test_diagonal_values_match_gram_schmidt(m, n, level_max):
    """The pivot indices are the basis indices Gram-Schmidt keeps, the
    k-th leading minor is the product of its first k squared norms, and the
    diagonal values read from the pivot monomials equal the Gram-Schmidt
    ones."""
    radicals = 0
    for p in (1, 2, 3):
        for blk in vm.gram_blocks_up_to(m, n, p, level_max):
            _, norms, indices = orthogonalize(blk)
            assert blk.pivot_indices == indices and len(indices) == blk.rank
            assert blk.minors == list(itertools.accumulate(norms, operator.mul))
            assert vm.diagonal_values(block_record(blk, (m + n,))) \
                == reference_diagonal_values(blk)
            radicals += blk.size - blk.rank
    assert radicals


@pytest.mark.parametrize("p", [-1, -2])
def test_diagonal_values_on_indefinite_forms(p):
    """At negative orders the form is indefinite (negative pivots); there
    the elimination pivots as the reference does, so the values equal the
    Gram-Schmidt ones."""
    negative = 0
    for m, n, level_max in ((1, 1, 6), (2, 1, 5), (1, 2, 5), (2, 2, 4)):
        for blk in vm.gram_blocks_up_to(m, n, p, level_max):
            assert blk.pivot_indices == orthogonalize(blk)[2]
            assert vm.diagonal_values(block_record(blk, (m + n,))) \
                == reference_diagonal_values(blk)
            negative += not blk.psd
    assert negative


def test_diagonal_values_raise_on_stalled_elimination():
    """At p = -1 the (1, 1, 2) block of (3, 0) leaves a nonzero block with a
    zero diagonal, so there are no pivot indices to read."""
    blk = vm.gram_block_for_content(3, 0, -1, (1, 1, 2))
    assert blk.pivot_indices is None and not blk.psd
    with pytest.raises(ArithmeticError):
        vm.diagonal_values(block_record(blk, (3,)))


# -- the Cartan identity diagonal_values rests on ------------------------------

@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2), (2, 2),
                                 (3, 1)])
def test_last_pair_acts_by_the_weight_on_every_monomial(m, n):
    """{c_b^-, c_b^+} for the last index b = r, and for every other boson
    index b, read as the action image and as the bracket action B(b, b),
    maps every PBW monomial x to (2 content_b + p) x."""
    eng = vm.get_engine(m, n)
    for level in range(5):
        for x in vm.pbw_basis(m, n, level):
            for b in range(m + 1, m + n + 1):
                want = {x: vm.PPoly((2 * x.content(m, n)[b - 1], 1))}
                assert eng._action_image(("bb", b, b, "-", "+"), x) == want
                assert {eng._mono(key): vm.PPoly(poly) for key, poly
                        in eng.bracket(b, b, eng._key(x)).items()} == want
                assert eng.acts_by_weight(b, x)


def raised_key(eng, b, mono):
    """y = x + e_b, the term of c_b^+ x with the letter b in its place: a
    key one level above x that the Cartan verdict of b on x lowers."""
    x = eng._key(mono)
    y = x + eng._unit[b - 1]
    assert y in eng._insert_letter(b, x)
    return y


def poison_low(monkeypatch, eng, b, key):
    """Make eng.low(b, key) wrong by 1 in the constant term c0 of the entry
    at its smallest key; every other lowering image stays right."""
    low = eng.low
    image = low(b, key)
    z = min(image)
    wrong = {**image, z: (image[z][0] + 1, image[z][1])}
    monkeypatch.setattr(eng, "low", lambda a, k: wrong if (a, k) == (b, key)
                        else low(a, k))


def poison_one_verdict(monkeypatch, eng, b, mono, level_max):
    """Make the Cartan verdict of the pair b on mono, and it alone, read a
    wrong lowering image: every Gram triangle and every other verdict of
    levels <= level_max is computed first, so that no cached value is built
    from the image low(b, y) poisoned next, y = raised_key(eng, b, mono)."""
    bosons = range(eng.m + 1, eng.r + 1)
    for level in range(level_max + 1):
        for content, monos in eng.level_basis(level).items():
            eng.gram_polys(content)
            for c, x in itertools.product(bosons, monos):
                if (c, x) != (b, mono):
                    eng.acts_by_weight(c, x)
    poison_low(monkeypatch, eng, b, raised_key(eng, b, mono))


def test_failed_cartan_identity_is_an_error_failure(monkeypatch, capsys):
    """One wrong lowering image that the last pair's verdict reads on one
    monomial fails that verdict: diagonal_check reports an "error" failure
    at the monomial's weight and gram and matelems exit 1."""
    from parafock.cli import main

    eng = vm.VermaEngine(1, 1)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    mono = eng.level_basis(1)[(0, 1)][0]
    poison_one_verdict(monkeypatch, eng, 2, mono, 2)
    weight = list(gz.doubled_weight((0, 1), 1, 1, 2))
    with pytest.raises(ArithmeticError) as exc:
        vm.diagonal_values(walk_record(1, 1, 2, (0, 1)))
    assert str(weight) in str(exc.value)
    rep = orbit_check(vm.diagonal_check, 1, 1, 2, 2)
    assert not rep["ok"]
    assert [f["weight"] for f in rep["failures"]] == [weight]
    assert "error" in rep["failures"][0]
    for command in ("gram", "matelems"):
        assert main([command, "--m", "1", "--n", "1", "--p", "2",
                     "--levels", "2"]) == 1
    assert '"failures":1' in capsys.readouterr().out


def test_orbit_walk_checks_every_boson_pair(monkeypatch, capsys):
    """A wrong lowering image read by the verdict of the pair b = 2 != r
    on the representative content (0,1,0) of (1,2) fails the verdict of the
    whole orbit: at the non-representative (0,0,1) the last pair r = 3 maps
    c_3^+ as b = 2 maps c_2^+, so diagonal_check reports an "error" failure
    at both weights, matelems emits an "error" record at both and both
    commands exit 1."""
    from parafock.cli import main

    eng = vm.VermaEngine(1, 2)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    mono = eng.level_basis(1)[(0, 1, 0)][0]
    poison_one_verdict(monkeypatch, eng, 2, mono, 2)
    rep = orbit_check(vm.diagonal_check, 1, 2, 2, 2)
    weights = [list(gz.doubled_weight(c, 1, 2, 2))
               for c in ((0, 0, 1), (0, 1, 0))]
    assert not rep["ok"]
    assert [f["weight"] for f in rep["failures"]] == weights
    assert all("error" in f for f in rep["failures"])
    argv = ["--m", "1", "--n", "2", "--p", "2", "--levels", "2"]
    assert main(["gram", *argv]) == 1
    assert '"failures":2' in capsys.readouterr().out
    assert main(["matelems", *argv]) == 1
    errors = [json.loads(line) for line in capsys.readouterr().out.splitlines()
              if '"error"' in line]
    assert [r["weight"] for r in errors] == weights


@pytest.mark.parametrize("poison,cartan", [(1, True), (0, False)])
def test_cartan_verdict_reads_exactly_the_pivot_monomials(monkeypatch,
                                                          poison, cartan):
    """Content (1, 1) of (1, 1) at p = 1 has the Gram block [[4, 2], [2, 1]]
    (rank 1), so the elimination pivots on monomial 0 alone.  A wrong
    lowering image low(2, y) at level 3, y = raised_key of monomial 1, which
    only the last pair's verdict on monomial 1 reads, leaves the Cartan
    verdict True; at y of monomial 0 it makes the verdict False."""
    eng = vm.VermaEngine(1, 1)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    blk = vm.gram_block_for_content(1, 1, 1, (1, 1))
    assert blk.matrix == [[4, 2], [2, 1]] and blk.rank == 1
    poison_low(monkeypatch, eng, 2, raised_key(eng, 2, blk.basis[poison]))
    assert walk_record(1, 1, 1, (1, 1)).cartan is cartan


@pytest.mark.parametrize("half", ["x", "y"])
def test_cartan_verdict_reads_both_halves_of_the_anticommutator(monkeypatch,
                                                                half):
    """The verdict of a boson pair b on x computes
    c_b^- (c_b^+ x) + c_b^+ (c_b^- x) from the lowering images: on every
    monomial x to level 3 of (1,2) and (2,2), with content_b >= 1 for the
    half "x", a wrong low(b, y) at level L + 1 alone (y = raised_key, half
    "y"), or a wrong low(b, x) alone (half "x"), turns a True verdict False.
    """
    checked = 0
    for m, n in ((1, 2), (2, 2)):
        eng = vm.VermaEngine(m, n)
        for level, b in itertools.product(range(4), range(m + 1, m + n + 1)):
            for x in vm.pbw_basis(m, n, level):
                if half == "x" and not x.content(m, n)[b - 1]:
                    continue
                assert eng.acts_by_weight(b, x)
                key = eng._key(x) if half == "x" else raised_key(eng, b, x)
                with monkeypatch.context() as patch:
                    poison_low(patch, eng, b, key)
                    assert not eng.acts_by_weight.__wrapped__(b, x), (b, x)
                checked += 1
    assert checked > 100


MEMOIZED = ("level_basis", "orbits", "_pack", "_insert_letter", "_lead",
            "low", "bracket", "_pair", "gram_polys", "cartan",
            "acts_by_weight")


def test_engine_caches_are_per_engine():
    """Each memoized primitive reports cache_info(), and a fresh engine fills
    its own caches without touching those of get_engine's engine."""
    shared = vm.get_engine(1, 1)
    vm.gram_block_for_content(1, 1, 2, (1, 1))
    before = {name: getattr(shared, name).cache_info().currsize
              for name in MEMOIZED}
    fresh = vm.VermaEngine(1, 1)
    for level in range(4):
        fresh.orbits(level)
        for content, monos in fresh.level_basis(level).items():
            fresh.gram_polys(content)
            fresh.cartan(content, tuple(range(len(monos))), (2,))
            for x in monos:
                fresh.pair_poly(x, x)
                fresh.acts_by_weight(2, x)
    for name in MEMOIZED:
        assert getattr(fresh, name).cache_info().currsize > 0, name
        assert getattr(shared, name).cache_info().currsize == before[name], name


def test_every_engine_cache_is_hit(monkeypatch):
    """Driven through the Gram blocks, diagonal values and orbit walk of
    (2,2) to level 4 at p = 1, 2, 3, a fresh engine hits every cache it
    wraps, and the wrapped methods are exactly MEMOIZED."""
    eng = vm.VermaEngine(2, 2)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    for p in (1, 2, 3):
        for blk in vm.gram_blocks_up_to(2, 2, p, 4):
            vm.diagonal_values(block_record(blk, (4,)))
        list(vm.gram_records_up_to(2, 2, p, 4))
    wrapped = {name: fn for name, fn in vars(eng).items()
               if hasattr(fn, "cache_info")}
    assert set(wrapped) == set(MEMOIZED)
    for name, fn in wrapped.items():
        assert fn.cache_info().hits > 0, name


def test_straightening_images_are_only_read(monkeypatch):
    """A fresh engine's cached straightening images c_a^+ X, unpacked, equal
    those of the reference straightening on exponent tuples, and stay equal
    after the Gram blocks, diagonal values and creation actions of (2,2) to
    level 4 at p = 1, 2, 3 have read them: no caller writes into a dict the
    cache hands out."""
    eng = vm.VermaEngine(2, 2)
    keys = [(a, x) for level in range(4)
            for monos in eng.level_basis(level).values() for x in monos
            for a in range(1, eng.r + 1)]
    expected = {key: insert_letter(eng, *key) for key in keys}
    assert {key: engine_insert_letter(eng, *key) for key in keys} == expected
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    for p in (1, 2, 3):
        for blk in vm.gram_blocks_up_to(2, 2, p, 4):
            vm.diagonal_values(block_record(blk, (4,)))
    for a, x in keys:
        eng.act(("c", a, "+"), {x: 1}, 2)
    assert {key: engine_insert_letter(eng, *key) for key in keys} == expected


RECURSION = ("_lead", "_insert_letter", "low", "bracket", "_pair")


@pytest.mark.parametrize("m,n", [(2, 2), (3, 1), (0, 3), (3, 0)])
def test_lowering_images_are_nonzero_pairs(m, n, monkeypatch, capsys):
    """Through a gram run to level 5, every value of low and bracket maps
    int keys to (c0, c1) int pairs, c0 + c1 p of degree <= 1, none of them
    (0, 0); and every pair_poly value is in normal form: a nonzero entry has
    a nonzero last coefficient."""
    from parafock.cli import main

    eng = vm.VermaEngine(m, n)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    values = {"low": [], "bracket": [], "pair_poly": []}

    def spy(name):
        inner = getattr(eng, name)

        def spied(*args):
            value = inner(*args)
            values[name].append(value)
            return value
        return spied

    for name in values:
        monkeypatch.setattr(eng, name, spy(name))
    assert main(["gram", "--m", str(m), "--n", str(n), "--p", "2",
                 "--levels", "5"]) == 0
    capsys.readouterr()
    assert all(values.values())
    for image in values["low"] + values["bracket"]:
        assert type(image) is dict
        for key, pair in image.items():
            assert type(key) is int and type(pair) is tuple, image
            assert len(pair) == 2 and all(type(c) is int for c in pair), image
            assert pair != (0, 0), image
    for poly in values["pair_poly"]:
        assert type(poly) is vm.PPoly
        assert not poly.coeffs or poly.coeffs[-1] != 0, poly
    assert any(poly.coeffs for poly in values["pair_poly"])


# (name, entries) of the recursion's caches after a cold
# gram --m 2 --n 2 --p 2 --levels 5 on a fresh engine
COLD_GRAM_CACHE = {"low": 764, "bracket": 827, "_pair": 685,
                   "_insert_letter": 372, "_lead": 330, "acts_by_weight": 178,
                   "gram_polys": 50}


def test_cold_gram_fills_the_recursion_caches_exactly(monkeypatch, capsys):
    """A cold gram of (2,2) to level 5 computes each lowering image,
    bracket image, Gram entry, straightening, lead expansion, Cartan
    verdict and Gram triangle exactly once, and no more of them than
    COLD_GRAM_CACHE: every cache ends at that size with no more misses."""
    from parafock.cli import main

    eng = vm.VermaEngine(2, 2)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    assert main(["gram", "--m", "2", "--n", "2", "--p", "2",
                 "--levels", "5"]) == 0
    capsys.readouterr()
    infos = {name: getattr(eng, name).cache_info() for name in COLD_GRAM_CACHE}
    assert {name: info.currsize for name, info in infos.items()} \
        == COLD_GRAM_CACHE
    assert {name: info.misses for name, info in infos.items()} \
        == COLD_GRAM_CACHE


def holds_only_ints(value):
    """Whether value is an int, or a tuple or dict of such values."""
    if type(value) is int:
        return True
    if type(value) is tuple:
        return all(holds_only_ints(v) for v in value)
    if type(value) is dict:
        return all(holds_only_ints(k) and holds_only_ints(v)
                   for k, v in value.items())
    return False


def test_recursion_caches_hold_only_packed_keys(monkeypatch, capsys):
    """Through a gram run of (2,2) to level 4, every call of the memoized
    recursion takes int monomial keys, so every key of its caches is an
    int, and returns ints, tuples and dicts of them: no PBWMonomial or
    PPoly."""
    from parafock.cli import main

    eng = vm.VermaEngine(2, 2)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    calls = []

    def spy(name):
        cached = getattr(eng, name)

        def spied(*args):
            value = cached(*args)
            calls.append((name, args, value))
            return value
        return spied

    for name in RECURSION:
        setattr(eng, name, spy(name))
    assert main(["gram", "--m", "2", "--n", "2", "--p", "2",
                 "--levels", "4"]) == 0
    capsys.readouterr()
    assert {name for name, _, _ in calls} == set(RECURSION)
    for name, args, value in calls:
        assert all(type(arg) is int for arg in args), (name, args)
        assert holds_only_ints(value), (name, args)


@pytest.mark.parametrize("mono", [
    vm.PBWMonomial((0, -1), (0,)),     # negative exponent
    vm.PBWMonomial((1, -1), (1,)),     # negative, at a nonnegative content
    vm.PBWMonomial((1,), (0,)),        # too few singles
    vm.PBWMonomial((1, 0), ()),        # too few bracket factors
    vm.PBWMonomial((1, 0, 0), (0,)),   # too many singles
    vm.PBWMonomial((vm.CONTENT_LIMIT, 0), (0,)),
    vm.PBWMonomial((vm.CONTENT_LIMIT - 1, 0), (1,)),
])
def test_engine_rejects_monomials_outside_its_keys(mono):
    """A monomial of the wrong shape, with a negative exponent, or with a
    content entry at the slot limit is a ValueError wherever it enters the
    engine: in pair_poly, act and acts_by_weight."""
    eng = vm.VermaEngine(1, 1)
    with pytest.raises(ValueError):
        eng.pair_poly(mono, mono)
    with pytest.raises(ValueError):
        eng.act(("c", 1, "+"), {mono: 1}, 2)
    with pytest.raises(ValueError):
        eng.acts_by_weight(2, mono)


def test_engine_keys_reach_up_to_the_slot_limit():
    """The last content below the limit packs, lowers and raises by two
    letters without overflowing a slot; a level that reaches the limit
    raises."""
    eng = vm.VermaEngine(1, 1)
    top = vm.CONTENT_LIMIT - 1
    x = vm.PBWMonomial((0, top), (0,))
    assert eng._mono(eng._key(x)) == x
    # for a paraboson c^- (c^+)^k |0> = k (c^+)^(k-1) at an even k
    assert top % 2 == 0
    assert eng.act(("c", 2, "-"), {x: 1}, 3) \
        == {vm.PBWMonomial((0, top - 1), (0,)): top}
    assert eng.act(("bb", 2, 2, "+", "+"), {x: 1}, 1) \
        == {vm.PBWMonomial((0, top + 2), (0,)): 2}
    with pytest.raises(ValueError):
        eng.level_basis(vm.CONTENT_LIMIT)


@pytest.mark.parametrize("m,n,level_max", [
    (2, 2, 5), (3, 1, 5), (1, 3, 5), (0, 3, 5), (3, 3, 4),
])
def test_packed_keys_round_trip_in_basis_order(m, n, level_max):
    """Every monomial unpacks from its key, and the keys of the monomials
    of all levels, sorted as ints, come in the monomials' own order."""
    eng = vm.VermaEngine(m, n)
    monos = [x for level in range(level_max + 1)
             for x in vm.pbw_basis(m, n, level)]
    keys = [eng._key(x) for x in monos]
    assert all(type(key) is int for key in keys)
    assert [eng._mono(key) for key in keys] == monos
    assert [eng._mono(key) for key in sorted(keys)] == sorted(monos)


def test_packed_keys_round_trip_at_many_slots():
    """At (60, 60) a key has 7,260 byte slots, the first exponent most
    significant; packing and unpacking agree with the slot shifts, and a
    negative or overflowing exponent has no key."""
    eng = vm.VermaEngine(60, 60)
    width = eng.r + len(eng.slots)
    rng = random.Random(60)
    for _ in range(50):
        exps = [0] * width
        for k in rng.sample(range(width), 3):
            exps[k] = rng.randint(1, 80)
        x = vm.PBWMonomial(tuple(exps[:eng.r]), tuple(exps[eng.r:]))
        key = sum(e << vm.SLOT_BITS * (width - 1 - k)
                  for k, e in enumerate(exps))
        assert eng._key(x) == key
        assert eng._mono(key) == x
    zeros = (0,) * len(eng.slots)
    for singles in [(-1,) + (0,) * 119, (vm.CONTENT_LIMIT,) + (0,) * 119]:
        x = vm.PBWMonomial(singles, zeros)
        with pytest.raises(ValueError,
                           match=re.escape(f"{x!r} has no key in (60, 60)")):
            eng._key(x)


def test_gram_blocks_read_their_entries_through_pair_poly(monkeypatch):
    """On a fresh engine the first order takes each upper-triangle entry of
    every block from VermaEngine.pair_poly, once per entry per engine, so a
    count of pair_poly calls (as the benchmark's tracer takes) covers every
    Gram entry; a second and a third order read none and build the same
    entries' values."""
    original = vm.VermaEngine.pair_poly
    calls = []

    def counted(self, x, y):
        calls.append((x, y))
        return original(self, x, y)

    monkeypatch.setattr(vm.VermaEngine, "pair_poly", counted)
    eng = vm.VermaEngine(2, 2)
    monkeypatch.setattr(vm, "get_engine", lambda m, n: eng)
    reference = vm.VermaEngine(2, 2)
    for p in (2, 3, -1):
        calls.clear()
        blocks = list(vm.gram_blocks_up_to(2, 2, p, 4))
        if p == 2:
            assert calls == [(b.basis[i], b.basis[j]) for b in blocks
                             for i in range(b.size)
                             for j in range(i, b.size)]
            assert len(set(calls)) == len(calls)
        else:
            assert calls == []
        for blk in blocks:
            assert blk.matrix == [
                [original(reference, x, y).evaluate(p) for y in blk.basis]
                for x in blk.basis]


@PROPERTY
@given(st.data())
def test_cached_blocks_evaluate_the_entry_polynomials(data):
    """At any integer order a block built from the engine's cached triangle
    equals the entrywise pair_poly(x, y).evaluate(p) and holds only ints,
    left unwritten by its elimination: eliminating it again gives the
    block's rank, verdict, minors and pivots."""
    m, n = data.draw(st.sampled_from(PROPERTY_DOMAINS))
    eng = vm.get_engine(m, n)
    level = data.draw(st.integers(0, 3))
    content = data.draw(st.sampled_from(sorted(eng.level_basis(level))))
    p = data.draw(st.integers(-4, 20))
    blk = vm.gram_block_for_content(m, n, p, content)
    assert blk.basis == vm.basis_for_content(m, n, content)
    assert blk.matrix == [[eng.pair_poly(x, y).evaluate(p) for y in blk.basis]
                          for x in blk.basis]
    assert all(type(v) is int for row in blk.matrix for v in row)
    assert symmetric_rank_psd(blk.matrix) \
        == (blk.rank, blk.psd, blk.minors, blk.pivot_indices)


def test_fraction_orders_are_refused():
    """The Gram block takes integer orders only: a Fraction order fails the
    block's integer check of p."""
    with pytest.raises(TypeError):
        vm.gram_block_for_content(1, 1, Fraction(1, 3), (1, 0))


@pytest.mark.parametrize("p", [Fraction(1, 3), Fraction(2, 1)])
def test_fraction_orders_are_refused_before_any_elimination(p, monkeypatch):
    """The orbit walk takes integer orders only, as its blocks do: a
    Fraction order, even an integral one, is a TypeError raised before
    the elimination is reached."""
    def eliminated(rows):
        raise AssertionError("an elimination ran")

    monkeypatch.setattr(vm, "symmetric_rank_psd", eliminated)
    monkeypatch.setattr(rational_linalg, "symmetric_rank_psd", eliminated)
    with pytest.raises(TypeError):
        list(vm.gram_records_up_to(1, 1, p, 2))


# -- symmetry of the index permutations within each parity class -------------

@pytest.mark.parametrize("m,n,level_max", [(2, 2, 4), (3, 1, 4), (2, 1, 5),
                                           (1, 2, 5), (0, 3, 4), (3, 0, 4)])
def test_same_parity_index_permutations_are_symmetries(m, n, level_max):
    """Permuting the parafermion indices among themselves, or the paraboson
    indices among themselves, is an automorphism of the triple relations
    fixing the vacuum and the form: it leaves the pattern counts of every
    width cap, and every Gram block's size, rank and PSD flag, unchanged."""
    perms = [odd + even for odd in itertools.permutations(range(m))
             for even in itertools.permutations(range(m, m + n))]

    def permuted(content, perm):
        return tuple(content[k] for k in perm)

    for level in range(level_max + 1):
        for width in (None, 1, 2, 3):
            counts = gz.pattern_counts(m, n, level, max_width=width)
            for content, cnt in counts.items():
                for perm in perms:
                    assert counts[permuted(content, perm)] == cnt
    for p in (1, 2, 3):
        blocks = {blk.content: (blk.size, blk.rank, blk.psd)
                  for blk in vm.gram_blocks_up_to(m, n, p, level_max)}
        for content, summary in blocks.items():
            for perm in perms:
                assert blocks[permuted(content, perm)] == summary


def all_content_records(m, n, p, level_max):
    """The records of every content's own block, the Cartan identity checked
    for the last pair only: the walk the orbit walk replaces."""
    last = (m + n,) if n else ()
    for blk in vm.gram_blocks_up_to(m, n, p, level_max):
        yield block_record(blk, last)


@pytest.mark.parametrize("m,n,level_max", [
    (1, 1, 4), (2, 1, 4), (1, 2, 4), (0, 2, 4), (3, 0, 4), (2, 2, 4),
    (3, 1, 4), (1, 3, 4), (2, 2, 5),
])
def test_orbit_walk_matches_the_all_content_walk(m, n, level_max, monkeypatch,
                                                 capsys):
    """Every record of the orbit walk, both checks that read it, and the whole
    gram and matelems outputs equal those built from every content's own
    block, at the orders 1..3 and at level_max + 1, where every block has
    full rank."""
    from parafock.cli import main

    for p in (1, 2, 3, level_max + 1):
        reference = list(all_content_records(m, n, p, level_max))
        records = list(vm.gram_records_up_to(m, n, p, level_max))
        assert records == reference
        assert vm.radical_cut_check(m, n, p, level_max, records) \
            == vm.radical_cut_check(m, n, p, level_max, reference)
        if n:
            assert vm.diagonal_check(m, n, p, level_max, records) \
                == vm.diagonal_check(m, n, p, level_max, reference)
        for command in ("gram", "matelems"):
            argv = [command, "--m", str(m), "--n", str(n), "--p", str(p),
                    "--levels", str(level_max)]
            code = main(argv)
            orbit_out = capsys.readouterr().out
            with monkeypatch.context() as patch:
                patch.setattr(vm, "gram_records_up_to", all_content_records)
                assert main(argv) == code == 0
            assert capsys.readouterr().out == orbit_out
