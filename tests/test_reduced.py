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
    assert float(v) == -1.5


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


def test_recurrence_residual_examples():
    for p in (1, 2, 3, 11):
        assert rm.recurrence_residual((0, 0), (0,), p, 1, 1, V) == 0
    for sub in ((0,), (1,)):
        assert rm.recurrence_residual((1, 0), sub, 2, 1, 1, V) == 0
    assert rm.recurrence_residual((1, 0, 0), (0, 0), 2, 2, 1, V) == 0


def test_recurrence_residual_rejects_bad_input():
    with pytest.raises(ValueError):
        rm.recurrence_residual((1,), (), 2, 1, 0, V)
    with pytest.raises(ValueError):
        rm.recurrence_residual((1, 0), (3,), 2, 1, 1, V)


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
    rep = rm.select_parsing_variant(1, 1, [2, 3], 4)
    assert rep["selected"] == V
    assert "mult:cancel:boson" in rep["survivors"]
    with pytest.raises(ValueError):
        rm.select_parsing_variant(1, 1, [2], 4)


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
    raised = 0
    for variant in rm.ALL_VARIANTS:
        for p in (1, 2, 3):
            squares = {}
            for top, subrow in rm.recurrence_configs(m, n, 4):
                fresh = _outcome(rm.recurrence_residual,
                                 top, subrow, p, m, n, variant)
                shared = _outcome(rm.recurrence_residual,
                                  top, subrow, p, m, n, variant,
                                  squares=squares)
                assert shared == fresh, (variant.short(), p, top, subrow)
                raised += fresh == "uncancelled"
    assert raised  # the strict variants reach the stored uncancelled zeros


def test_single_domain_selection_is_the_joint_one():
    single = rm.select_parsing_variant(2, 1, [1, 2, 3], 3)
    joint = rm.select_parsing_variant_multi([(2, 1)], [1, 2, 3], 3)
    for key in ("selected", "survivors", "per_variant", "p_samples",
                "level_max"):
        assert single[key] == joint[key]
    assert (single["m"], single["n"]) == (2, 1)
