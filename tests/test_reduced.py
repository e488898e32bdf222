"""Closed-form matrix elements: hand values, recurrence sweeps, disambiguation."""

import random
from fractions import Fraction

import pytest

from parafock import reduced as rm
from parafock import patterns as gz

V = rm.DEFAULT_VARIANT


def test_parity_indicator():
    assert rm.parity_indicator("E", 0) == 1
    assert rm.parity_indicator("O", -1) == 1
    assert rm.parity_indicator("E", 3) == 0
    assert rm.parity_indicator("O", 4) == 0
    with pytest.raises(ValueError):
        rm.parity_indicator("X", 1)


def test_signed_sqrt_rational_invariants():
    with pytest.raises(ValueError):
        rm.SignedSqrtRational(1, Fraction(0))
    with pytest.raises(ValueError):
        rm.SignedSqrtRational(0, Fraction(1))
    with pytest.raises(ValueError):
        rm.SignedSqrtRational(1, Fraction(-1))
    v = rm.SignedSqrtRational(-1, Fraction(9, 4))
    assert (v.sign, v.radicand) == (-1, Fraction(9, 4))


def test_signed_sqrt_rational_validates_on_every_construction_path():
    v = rm.SignedSqrtRational(1, Fraction(1))
    with pytest.raises(ValueError):
        v._replace(radicand=Fraction(0))
    with pytest.raises(ValueError):
        rm.SignedSqrtRational._make((0, Fraction(1)))
    assert v._replace(sign=-1) == rm.SignedSqrtRational(-1, Fraction(1))


def test_reduced_types_are_frozen_values():
    v = rm.SignedSqrtRational(-1, Fraction(9, 4))
    with pytest.raises(AttributeError):
        v.sign = 1
    assert v == rm.SignedSqrtRational(-1, Fraction(9, 4))
    assert hash(v) == hash(rm.SignedSqrtRational(-1, Fraction(9, 4)))
    assert repr(v) == "SignedSqrtRational(sign=-1, radicand=Fraction(9, 4))"
    strict = rm.ParsingVariant(zero_policy="strict")
    with pytest.raises(AttributeError):
        strict.zero_policy = "cancel_pairs"
    with pytest.raises(AttributeError):
        strict.label = "strict"
    same = rm.ParsingVariant("indicator_times_arg", "strict", "boson_entry")
    assert strict == same and hash(strict) == hash(same)
    assert {strict: "s", V: "d"}[same] == "s"
    assert len(set(rm.ALL_VARIANTS)) == 8
    assert repr(strict) == ("ParsingVariant(eo_reading='indicator_times_arg', "
                            "zero_policy='strict', boson_tail='boson_entry')")


@pytest.mark.parametrize("field, typo", [
    ("eo_reading", "indicator_times"),
    ("zero_policy", "cancel"),
    ("boson_tail", "boson"),
])
def test_parsing_variant_rejects_an_unknown_value(field, typo):
    """A typo was read silently as the other reading of its field."""
    with pytest.raises(ValueError, match=field):
        rm.ParsingVariant(**{field: typo})
    with pytest.raises(ValueError, match=field):
        V._replace(**{field: typo})


def test_variant_from_short_errors():
    """A wrong count of names is a ValueError, an unknown name a KeyError;
    the CLI turns either into a usage error."""
    with pytest.raises(ValueError):
        rm.ParsingVariant.from_short("mult:cancel")
    with pytest.raises(ValueError):
        rm.ParsingVariant.from_short("mult:cancel:boson:boson")
    for text in ("cancel:mult:boson", "mult:cancl:boson", "mult:cancel:"):
        with pytest.raises(KeyError):
            rm.ParsingVariant.from_short(text)


def test_vacuum_value_is_p():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2)):
        top = (0,) * (m + n)
        for p in (1, 2, 3, 7):
            assert rm.reduced_me_squared(top, 1, p, m, n, V) == p


def test_cut_at_width_p():
    for p in (1, 2, 3):
        assert rm.reduced_me_squared((p, 0), 1, p, 1, 1, V) == 0


def test_fermionic_chain_m1n1():
    # (p - mu1)(mu1 + 1), forced by the recurrence and the Gram oracle
    p = 6
    for mu1 in range(p):
        assert rm.reduced_me_squared((mu1, 0), 1, p, 1, 1, V) \
            == (p - mu1) * (mu1 + 1)


def test_bosonic_values_m1n1():
    assert rm.reduced_me_squared((1, 0), 2, 5, 1, 1, V) == 2
    assert rm.reduced_me_squared((1, 1), 2, 5, 1, 1, V) == 7  # p + 2


def test_cross_family_cancellation_m2n1():
    # the even-slot closed form hits 0 * (1/0) here; pairing gives exactly 2
    for p in (1, 2, 3, 9):
        assert rm.reduced_me_squared((1, 0, 0), 2, p, 2, 1, V) == 2


def test_paraboson_string_values():
    # pure boson column: p + mu for even mu, mu + 1 for odd mu
    p = 5
    for mu in range(5):
        expect = p + mu if mu % 2 == 0 else mu + 1
        assert rm.reduced_me_squared((mu,), 1, p, 0, 1, V) == expect


def test_parafermion_string_values():
    p = 5
    for mu in range(p):
        assert rm.reduced_me_squared((mu,), 1, p, 1, 0, V) \
            == (p - mu) * (mu + 1)


def test_inadmissible_transition_is_zero_by_convention():
    assert rm.reduced_me_squared((0, 0), 2, 3, 1, 1, V) == 0
    # ... even though the raw closed form does not vanish there: the value is
    # forced to zero because the raised row is not a top row.
    num, den, outer = rm._squared_factors((0, 0), 2, 3, 1, 1, V)
    assert outer * rm._ratio(num, den, V) != 0


def test_sign_rules():
    assert rm.reduced_me((1, 1), 2, 3, 1, 1, V).sign == 1  # empty exponent sum
    assert rm.reduced_me((0, 0), 2, 3, 1, 1, V).sign == 0  # vanishing radicand
    # boson raise with an odd boson entry below it flips the sign
    val = rm.reduced_me((2, 2, 1), 2, 3, 1, 2, V)
    assert val.sign == -1
    val = rm.reduced_me((2, 2, 2), 2, 3, 1, 2, V)
    assert val.sign == 1
    for k in (1,):
        assert rm.reduced_me((1, 0, 0), k, 3, 2, 1, V).sign == 1


def test_nonnegative_in_unitary_range():
    for m, n in ((1, 1), (2, 1), (1, 2), (2, 2)):
        for p in (1, 2, 3):
            for level in range(5):
                for top in gz.top_rows_for_level(m, n, level, max_width=p):
                    for k in range(1, m + n + 1):
                        sq = rm.reduced_me_squared(top, k, p, m, n, V)
                        assert sq >= 0, (m, n, p, top, k)
                        rm.reduced_me(top, k, p, m, n, V)  # no raise


def test_strict_policy_fails_at_vacuum():
    strict = rm.ParsingVariant(zero_policy="strict")
    with pytest.raises(rm.UncancelledZeroError):
        rm.reduced_me_squared((0, 0), 1, 2, 1, 1, strict)


def term_table(top, subrow, m, n, variant=V):
    """_top_terms' (terms, shift) of one config under the variant's zero
    policy."""
    _, [(_, terms, shift)] = rm._top_terms(tuple(top), [tuple(subrow)], m, n,
                                           variant.zero_policy)
    return terms, shift


def closed_form_squares(terms, p, m, n, variant):
    """The G_k^2 pair of every key a term table reads, as the sweep holds
    it: _pair of the closed form's factors, None for an uncancelled zero."""
    return {key: rm._pair(*rm._squared_factors(*key, p, m, n, variant),
                          variant.zero_policy)
            for key, _ in terms}


def term_residual(terms, shift, p, squares):
    """The sweep's residual of a term table at order p against the G_k^2
    pairs in squares, as a Fraction.  Raises UncancelledZeroError where
    _term_sum reads an uncancelled zero."""
    total = rm._term_sum(terms, squares)
    if total is None:
        raise rm.UncancelledZeroError(f"the residual at order {p} reads an "
                                      "uncancelled zero")
    num, den = total
    return Fraction(num - (p + shift) * den, den)


def fresh_residual(top, subrow, p, m, n, variant=V):
    """term_residual of one config's own term table and closed-form G_k^2
    table."""
    terms, shift = term_table(top, subrow, m, n, variant)
    return term_residual(terms, shift, p,
                         closed_form_squares(terms, p, m, n, variant))


def test_recurrence_residual_examples():
    for p in (1, 2, 3, 11):
        assert fresh_residual((0, 0), (0,), p, 1, 1) == 0
    for sub in ((0,), (1,)):
        assert fresh_residual((1, 0), sub, 2, 1, 1) == 0
    assert fresh_residual((1, 0, 0), (0, 0), 2, 2, 1) == 0


def test_recurrence_residual_rejects_bad_input():
    with pytest.raises(ValueError, match="bosonic last slot"):
        term_table((1,), (), 1, 0)
    with pytest.raises(ValueError, match="bosonic last slot"):
        rm.residual_sweep(1, 0, [2], 1, V)


def test_wrong_variant_fails_at_low_level():
    wrong = rm.ParsingVariant(eo_reading="indicator_of_sum")
    sweep = rm.residual_sweep(1, 1, [2, 3], 2, wrong)
    assert not sweep["ok"]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 1), (0, 2)])
def test_recurrence_sweep_default_variant(m, n):
    sweep = rm.residual_sweep(m, n, [1, 2, 3], 4, V)
    assert sweep["ok"], sweep["failures"][:3]
    assert sweep["configs"] > 0


def test_select_parsing_variant_single_domain():
    rep = rm.select_parsing_variant_multi([(1, 1)], [2, 3], 4)
    assert rep["selected"] == V
    assert "mult:cancel:boson" in rep["survivors"]


def test_select_parsing_variant_joint_domain_unique():
    rep = rm.select_parsing_variant_multi(
        [(1, 1), (2, 1), (1, 2), (2, 2)], [1, 2, 3], 4)
    assert rep["selected"] == V
    assert rep["survivors"] == ["mult:cancel:boson"]


def test_printed_index_reading_fails_beyond_rank_one():
    printed = rm.ParsingVariant(boson_tail="as_printed")
    sweep = rm.residual_sweep(2, 2, [1, 2, 3], 4, printed)
    assert not sweep["ok"]
    sweep = rm.residual_sweep(1, 1, [1, 2, 3], 4, printed)
    assert sweep["ok"]  # indistinguishable at one fermionic slot


def test_variant_short_roundtrip():
    for variant in rm.ALL_VARIANTS:
        assert rm.ParsingVariant.from_short(variant.short()) == variant


def reference_ratio(num_factors, den_factors, variant):
    """Per-factor Fraction division, as _ratio computed it before it went
    over to one integer product per side."""
    num = [Fraction(x) for x in num_factors]
    den = [Fraction(x) for x in den_factors]
    if variant.zero_policy == "cancel_pairs":
        cancel = min(sum(1 for x in num if x == 0),
                     sum(1 for x in den if x == 0))
        for side in (num, den):
            for _ in range(cancel):
                side.remove(0)
    if any(x == 0 for x in den):
        raise rm.UncancelledZeroError("zero denominator factor")
    out = Fraction(1)
    for x in num:
        out *= x
    for x in den:
        out /= x
    return out


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except rm.UncancelledZeroError:
        return "uncancelled"


@pytest.mark.parametrize("policy", ["cancel_pairs", "strict"])
def test_ratio_matches_per_factor_reference(policy):
    variant = rm.ParsingVariant(zero_policy=policy)
    rng = random.Random(20261018)
    seen = set()
    for _ in range(3000):
        num = [rng.choice((0, 0, rng.randint(-9, 9)))
               for _ in range(rng.randint(0, 6))]
        den = [rng.choice((0, rng.randint(-9, 9), rng.randint(1, 9)))
               for _ in range(rng.randint(0, 6))]
        want = _outcome(reference_ratio, num, den, variant)
        got = _outcome(rm._ratio, num, den, variant)
        assert got == want, (num, den)
        assert want == "uncancelled" or type(got) is Fraction
        seen.add("uncancelled" if want == "uncancelled"
                 else "zero" if want == 0 else "negative" if want < 0
                 else "positive")
    assert seen == {"uncancelled", "zero", "negative", "positive"}


def test_ratio_zero_pairing():
    cancel = rm.ParsingVariant(zero_policy="cancel_pairs")
    strict = rm.ParsingVariant(zero_policy="strict")
    assert rm._ratio([0, 3, -4], [2, 0], cancel) == -6
    assert rm._ratio([0, 0, 3], [2, 0], cancel) == 0
    assert rm._ratio([0, 3], [2], strict) == 0
    assert rm._ratio([], [], strict) == 1
    assert rm._ratio([6], [-4], strict) == Fraction(-3, 2)
    with pytest.raises(rm.UncancelledZeroError):
        rm._ratio([0, 3], [2, 0, 0], cancel)
    with pytest.raises(rm.UncancelledZeroError):
        rm._ratio([0, 3], [2, 0], strict)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (0, 2)])
@pytest.mark.parametrize("variant", rm.ALL_VARIANTS, ids=lambda v: v.short())
def test_sweep_values_equal_fresh_evaluations(m, n, variant):
    sweep = rm.residual_sweep(m, n, [1, 2, 3], 4, variant)
    assert sweep["values"]
    for (top, k, p), value in sweep["values"].items():
        assert value == rm.reduced_me_squared(top, k, p, m, n, variant)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2)])
def test_shared_table_gives_the_fresh_residual(m, n):
    """The sweep's G_k^2 table, one per order over every raisable (top row,
    slot), and its per-top term tables give each config the residual of a
    fresh per-config term table and G_k^2 table."""
    raised = 0
    for variant in rm.ALL_VARIANTS:
        tops = rm._prepare(m, n, 4, variant.zero_policy)
        for p in (1, 2, 3):
            shared = {(top, k): rm._pair(*rm._squared_factors(
                          top, k, p, m, n, variant), variant.zero_policy)
                      for top, raisable, _ in tops for k in raisable}
            for top, _, tables in tops:
                for subrow, terms, shift in tables:
                    fresh = _outcome(fresh_residual, top, subrow, p, m, n,
                                     variant)
                    got = _outcome(term_residual, terms, shift, p, shared)
                    assert got == fresh, (variant.short(), p, top, subrow)
                    raised += fresh == "uncancelled"
    assert raised  # the strict variants reach the stored uncancelled zeros


def test_residual_sweep_leaves_no_tables_behind(monkeypatch):
    """reduced keeps no module state: a direct residual_sweep builds its
    term tables for that call only, so a repeat builds them again, and no
    function of the module holds a cache."""
    calls = []
    original = rm._top_terms

    def counting(top, subrows, m, n, zero_policy):
        calls.extend((top, subrow) for subrow in subrows)
        return original(top, subrows, m, n, zero_policy)

    monkeypatch.setattr(rm, "_top_terms", counting)
    first = rm.residual_sweep(2, 1, [1, 2], 3, V)
    configs = len(list(rm.recurrence_configs(2, 1, 3)))
    assert len(calls) == configs
    assert rm.residual_sweep(2, 1, [1, 2], 3, V) == first
    assert len(calls) == 2 * configs
    assert not [name for name, value in vars(rm).items()
                if hasattr(value, "cache_info")]


def test_variant_selection_builds_each_term_table_once(monkeypatch):
    """The term tables read only the zero policy, so the sweeps of all eight
    variants share one term table build per (domain, config, zero policy)."""
    calls = []
    original = rm._top_terms

    def counting(top, subrows, m, n, zero_policy):
        calls.extend((m, n, zero_policy, top, subrow) for subrow in subrows)
        return original(top, subrows, m, n, zero_policy)

    monkeypatch.setattr(rm, "_top_terms", counting)
    domains, level_max = [(1, 1), (2, 1), (1, 2)], 3
    rep = rm.select_parsing_variant_multi(domains, [1, 2, 3], level_max)
    built = list(calls)
    # not kept after selection: a second one builds every table again
    assert rm.select_parsing_variant_multi(domains, [1, 2, 3],
                                           level_max) == rep
    assert calls == built + built
    del calls[len(built):]
    assert len(calls) == len(set(calls))
    swept = {(s["m"], s["n"],
              rm.ParsingVariant.from_short(s["variant"]).zero_policy)
             for s in rep["per_variant"]}
    assert {call[:3] for call in calls} == swept
    configs = {(m, n): len(list(rm.recurrence_configs(m, n, level_max)))
               for m, n in domains}
    assert len(calls) == sum(configs[m, n] for m, n, _ in swept)
    # 12 sweeps (two variants clean on every domain, six failing on the
    # first) would build 174 tables; the two zero policies build 61
    assert len(rep["per_variant"]) == 12
    assert sum(configs[s["m"], s["n"]] for s in rep["per_variant"]) == 174
    assert len(calls) == 61


def squared(squares, top, k, p, m, n, variant):
    """reduced_me_squared read through a (top, k) table of one (m, n, p,
    variant), which stores an uncancelled zero as None and raises it again
    on every read."""
    key = (top, k)
    if key not in squares:
        try:
            squares[key] = rm.reduced_me_squared(top, k, p, m, n, variant)
        except rm.UncancelledZeroError:
            squares[key] = None
    if squares[key] is None:
        raise rm.UncancelledZeroError(f"G_{k}^2 at top row {top}")
    return squares[key]


def reference_residual(top, subrow, p, m, n, variant=V, *, squares=None):
    """The recurrence residual as it was before the p-free term table: every
    coefficient is recomputed at each call, and a raising term is read even
    where its raised row is inadmissible (G_k^2 is 0 there)."""
    if squares is None:
        squares = {}
    if n < 1:
        raise ValueError("the diagonal recurrence needs a bosonic last slot")
    r = m + n
    top = tuple(top)
    subrow = tuple(subrow)
    if len(subrow) != r - 1:
        raise ValueError("subrow must have length m+n-1")
    mu = lambda i: top[i - 1]
    nu = lambda i: subrow[i - 1]
    total = Fraction(0)

    for i in range(1, m + 1):
        theta = mu(i) - nu(i)
        if theta not in (0, 1):
            raise ValueError(f"invalid theta step at slot {i}")
        # raising term
        if theta == 0:
            g = squared(squares, top, i, p, m, n, variant)
            if g:
                num = [mu(i) - mu(j) - i + j + 1
                       for j in range(1, m + 1) if j != i]
                num += [mu(i) + nu(s) + 2 * m - i - s + 1
                        for s in range(m + 1, r)]
                den = [mu(i) - nu(j) - i + j
                       for j in range(1, m + 1) if j != i]
                den += [mu(i) + mu(s) + 2 * m - i - s + 2
                        for s in range(m + 1, r + 1)]
                total += rm._ratio(num, den, variant) * g
        # lowering term
        if theta == 1:
            lowered = gz.lower_top_row(top, m, n, i)
            if lowered is not None:
                g = squared(squares, lowered, i, p, m, n, variant)
                if g:
                    num = [mu(i) - mu(j) - i + j
                           for j in range(1, m + 1) if j != i]
                    num += [mu(i) + nu(s) + 2 * m - i - s
                            for s in range(m + 1, r)]
                    den = [mu(i) - nu(j) - i + j - 1
                           for j in range(1, m + 1) if j != i]
                    den += [mu(i) + mu(s) + 2 * m - i - s + 1
                            for s in range(m + 1, r + 1)]
                    total += rm._ratio(num, den, variant) * g

    for q in range(m + 1, r + 1):
        g = squared(squares, top, q, p, m, n, variant)
        if g:
            num = [mu(j) + mu(q) + 2 * m - j - q + 1
                   for j in range(1, m + 1)]
            num += [mu(q) - nu(s) - q + s + 1 for s in range(m + 1, r)]
            den = [nu(j) + mu(q) + 2 * m - j - q + 2
                   for j in range(1, m + 1)]
            den += [mu(q) - mu(s) - q + s
                    for s in range(m + 1, r + 1) if s != q]
            total += rm._ratio(num, den, variant) * g
        lowered = gz.lower_top_row(top, m, n, q)
        if lowered is not None:
            g = squared(squares, lowered, q, p, m, n, variant)
            if g:
                num = [mu(j) + mu(q) + 2 * m - j - q
                       for j in range(1, m + 1)]
                num += [mu(q) - nu(s) - q + s for s in range(m + 1, r)]
                den = [nu(j) + mu(q) + 2 * m - j - q + 1
                       for j in range(1, m + 1)]
                den += [mu(q) - mu(s) - q + s - 1
                        for s in range(m + 1, r + 1) if s != q]
                total += rm._ratio(num, den, variant) * g

    rhs = p + 2 * (sum(top) - sum(subrow))
    return total - rhs

def reference_sweep(m, n, p_values, level_max, variant, max_failures=10):
    """residual_sweep as it was before the p-free term table, on
    reference_residual: configs, residuals and raisable slots are rebuilt at
    every order."""
    configs = 0
    failures = []
    errors = 0
    values = {}
    for p in p_values:
        squares = {}
        for top, subrow in rm.recurrence_configs(m, n, level_max):
            configs += 1
            try:
                res = reference_residual(top, subrow, p, m, n, variant,
                                         squares=squares)
                for k in range(1, m + n + 1):
                    if gz.raise_top_row(top, m, n, k) is not None:
                        values[(top, k, p)] = squared(
                            squares, top, k, p, m, n, variant)
            except rm.UncancelledZeroError:
                errors += 1
                continue
            if res != 0:
                if len(failures) < max_failures:
                    failures.append({"top": list(top), "subrow": list(subrow),
                                     "p": p, "residual": str(res)})
    return {"m": m, "n": n, "level_max": level_max,
            "p_values": list(p_values), "variant": variant.short(),
            "configs": configs, "failures": failures,
            "failure_count": len(failures), "errors": errors,
            "values": values,
            "ok": not failures and not errors}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                 (3, 1)])
def test_term_table_residual_matches_the_reference(m, n):
    """Value or exception of every residual up to level 5, all variants."""
    outcomes = set()
    for variant in rm.ALL_VARIANTS:
        for p in (1, 2, 3, 5):
            ref_squares = {}
            for top, subrow in rm.recurrence_configs(m, n, 5):
                want = _outcome(reference_residual, top, subrow, p, m, n,
                                variant, squares=ref_squares)
                got = _outcome(fresh_residual, top, subrow, p, m, n, variant)
                assert got == want, (variant.short(), p, top, subrow)
                assert want == "uncancelled" or type(got) is Fraction
                outcomes.add("uncancelled" if want == "uncancelled"
                             else "zero" if want == 0 else "nonzero")
    # the strict variants reach an uncancelled zero wherever there is a
    # fermionic slot
    assert outcomes == {"zero", "nonzero"} | ({"uncancelled"} if m else set())


def test_term_table_is_p_free_and_reads_only_the_zero_policy():
    """One table per zero policy serves every variant of that policy at
    every order."""
    top, subrow, m, n = (2, 1, 1), (1, 1), 2, 1
    for policy in ("cancel_pairs", "strict"):
        terms, shift = term_table(top, subrow, m, n,
                                  rm.ParsingVariant(zero_policy=policy))
        assert shift == 2 * (sum(top) - sum(subrow))
        assert all(len(key) == 2 for key, _ in terms)
        for variant in rm.ALL_VARIANTS:
            if variant.zero_policy != policy:
                continue
            for p in (1, 2, 3, 5):
                squares = closed_form_squares(terms, p, m, n, variant)
                assert _outcome(term_residual, terms, shift, p, squares) \
                    == _outcome(reference_residual, top, subrow, p, m, n,
                                variant)


def test_missing_coefficient_against_zero_square_drops_out():
    """Under the strict policy the vacuum term of (1|2) has no coefficient.
    Its G_1^2 raises on its own, so a table that reads 0 there is filled in
    by hand: the term then drops out, as it did before."""
    strict = rm.ParsingVariant(zero_policy="strict")
    top, subrow, m, n = (1, 0, 0), (0, 0), 1, 2
    terms, shift = term_table(top, subrow, m, n, strict)
    assert (((0, 0, 0), 1), None) in terms
    for p in (1, 2, 3):
        want = reference_residual(top, subrow, p, m, n, strict,
                                  squares={((0, 0, 0), 1): Fraction(0)})
        squares = closed_form_squares(terms, p, m, n, strict)
        got = term_residual(terms, shift, p,
                            squares | {((0, 0, 0), 1): (0, 1)})
        assert got == want
        for square in ((3, 1), None):
            with pytest.raises(rm.UncancelledZeroError):
                term_residual(terms, shift, p,
                              squares | {((0, 0, 0), 1): square})


def test_square_that_raises_raises_the_residual():
    strict = rm.ParsingVariant(zero_policy="strict")
    top, subrow, m, n = (0, 0), (0,), 1, 1
    terms, shift = term_table(top, subrow, m, n, strict)
    assert all(coefficient is not None for _, coefficient in terms)
    with pytest.raises(rm.UncancelledZeroError):
        rm.reduced_me_squared((0, 0), 1, 2, m, n, strict)
    for p in (1, 2, 3, 5):
        assert _outcome(reference_residual, top, subrow, p, m, n, strict) \
            == "uncancelled"
        with pytest.raises(rm.UncancelledZeroError):
            fresh_residual(top, subrow, p, m, n, strict)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2),
                                 (3, 1), (1, 3)])
@pytest.mark.parametrize("variant", rm.ALL_VARIANTS, ids=lambda v: v.short())
def test_sweep_matches_the_reference_sweep(m, n, variant):
    want = reference_sweep(m, n, [1, 2, 3], 4, variant)
    got = rm.residual_sweep(m, n, [1, 2, 3], 4, variant)
    assert got == want


@pytest.mark.parametrize("m,n", [(0, 1), (0, 2), (1, 1), (1, 2), (1, 3)])
@pytest.mark.parametrize("eo", ["indicator_times_arg", "indicator_of_sum"])
@pytest.mark.parametrize("policy", ["cancel_pairs", "strict"])
def test_tail_readings_sweep_alike_below_two_fermions(m, n, eo, policy):
    """boson_tail feeds only a family that is empty when m <= 1, so there
    the two tail readings give the same sweep but for its name."""
    boson, printed = (rm.ParsingVariant(eo, policy, tail)
                      for tail in ("boson_entry", "as_printed"))
    want = rm.residual_sweep(m, n, [1, 2, 3], 5, boson)
    got = rm.residual_sweep(m, n, [1, 2, 3], 5, printed)
    assert got["variant"] == printed.short()
    assert got | {"variant": boson.short()} == want


def test_variant_selection_runs_one_sweep_per_distinct_reading(monkeypatch):
    """On the domains with m <= 1 the two tail readings share one sweep,
    and each still gets a record under its own name."""
    calls = []
    original = rm._sweep

    def counting(m, n, p_values, level_max, variant, tables):
        calls.append((m, n, variant.short()))
        return original(m, n, p_values, level_max, variant, tables)

    monkeypatch.setattr(rm, "_sweep", counting)
    rep = rm.select_parsing_variant_multi(
        [(1, 1), (2, 1), (1, 2), (2, 2)], [1, 2, 3], 4)
    records = [(s["m"], s["n"], s["variant"]) for s in rep["per_variant"]]
    assert records == [
        (1, 1, "mult:cancel:boson"), (2, 1, "mult:cancel:boson"),
        (1, 2, "mult:cancel:boson"), (2, 2, "mult:cancel:boson"),
        (1, 1, "mult:cancel:printed"), (2, 1, "mult:cancel:printed"),
        (1, 1, "mult:strict:boson"), (1, 1, "mult:strict:printed"),
        (1, 1, "argsum:cancel:boson"), (1, 1, "argsum:cancel:printed"),
        (1, 1, "argsum:strict:boson"), (1, 1, "argsum:strict:printed")]
    readings = {(m, n, name if m >= 2 else name.replace("printed", "boson"))
                for m, n, name in records}
    assert len(calls) == len(set(calls)) == len(readings) == 8
    assert set(calls) == readings
    for stat in rep["per_variant"]:
        variant = rm.ParsingVariant.from_short(stat["variant"])
        fresh = rm.residual_sweep(stat["m"], stat["n"], [1, 2, 3], 4, variant)
        assert stat == {k: v for k, v in fresh.items() if k != "values"}


def test_distinct_survivors_are_refused(monkeypatch):
    """Two clean variants whose values differ anywhere are both refused."""
    domains = [(2, 1)]
    rep = rm.select_parsing_variant_multi(domains, [1, 2], 3)
    assert rep["survivors"] == ["mult:cancel:boson", "mult:cancel:printed"]
    original = rm._sweep

    def shifted(m, n, p_values, level_max, variant, tables):
        sweep = original(m, n, p_values, level_max, variant, tables)
        if variant.boson_tail == "as_printed":
            key = max(sweep["values"])
            sweep["values"] = sweep["values"] | {key: sweep["values"][key] + 1}
        return sweep

    monkeypatch.setattr(rm, "_sweep", shifted)
    with pytest.raises(rm.VariantSelectionError, match="distinct variants"):
        rm.select_parsing_variant_multi(domains, [1, 2], 3)
