"""Partition, Schur and character tests with independently derived values."""

import functools
import itertools
import random
from fractions import Fraction

import pytest

from parafock import patterns as gz
from parafock import symfunc as sf


def test_conjugate_involution():
    assert sf.conjugate((3, 2, 2)) == (3, 3, 1)
    assert sf.conjugate(sf.conjugate((5, 3, 3, 1))) == (5, 3, 3, 1)
    assert sf.conjugate(()) == ()


def test_check_partition_rejects_non_integer_parts():
    for bad in [(1.5,), (2, 0.5), (Fraction(3, 2), 1), ("1",)]:
        with pytest.raises(ValueError):
            sf.check_partition(bad)
    with pytest.raises(ValueError):
        sf.super_schur((2.5, 1), 1, 1)
    parts = sf.check_partition((Fraction(2), True, 1, 0))
    assert parts == (2, 1, 1)
    assert all(type(x) is int for x in parts)


def test_frobenius_examples():
    f = sf.frobenius((3, 2, 2))
    assert (f.arms, f.legs) == ((2, 0), (2, 1))
    f = sf.frobenius((2, 1))
    assert (f.arms, f.legs) == ((1,), (1,))  # self-conjugate
    assert sf.frobenius(()).rank == 0


def test_frobenius_form_is_a_frozen_value():
    f = sf.frobenius((3, 2, 2))
    with pytest.raises(AttributeError):
        f.arms = (1,)
    same = sf.FrobeniusForm((2, 0), (2, 1))
    assert f == same and hash(f) == hash(same)
    assert f.rank == 2 and sf.FrobeniusForm((), ()).rank == 0
    assert repr(f) == "FrobeniusForm(arms=(2, 0), legs=(2, 1))"


def test_frobenius_roundtrip_random():
    rng = random.Random(20240811)
    seen = 0
    while seen < 500:
        k = rng.randint(0, 30)
        parts = []
        while k > 0:
            part = rng.randint(1, min(k, 8))
            if parts and part > parts[-1]:
                part = parts[-1]
            parts.append(part)
            k -= part
        la = sf.check_partition(parts)
        form = sf.frobenius(la)
        assert sf.from_frobenius(form) == la
        assert sf.frobenius(sf.conjugate(la)) \
            == sf.FrobeniusForm(form.legs, form.arms)
        seen += 1


def test_hook_membership():
    assert sf.in_hook((1, 1), 1, 1)
    assert not sf.in_hook((2, 2), 1, 1)
    assert sf.in_hook((7,), 1, 0)
    assert sf.in_hook((3, 2, 1), 2, 2)
    assert not sf.in_hook((3, 3, 3), 2, 2)


def test_arm_leg_offset_family():
    assert sf.has_arm_leg_offset((), 1)
    assert sf.has_arm_leg_offset((), 7)
    assert sf.has_arm_leg_offset((2, 1), 0)  # self-conjugate
    # single hook (p+1) has Frobenius (p | 0)
    for p in (1, 2, 3):
        assert sf.has_arm_leg_offset((p + 1,), p)
    assert not sf.has_arm_leg_offset((2, 1, 1), 1)  # (1 | 2)
    fam = sf.offset_family_partitions(1, 6)
    assert fam == [(), (2,), (3, 1), (3, 3), (4, 1, 1)]
    for p in (1, 2, 3):
        for sigma in sf.offset_family_partitions(p, 10):
            assert sf.has_arm_leg_offset(sigma, p)


def test_sign_exponent_integral_and_nonnegative():
    for p in (1, 2, 3):
        for sigma in sf.offset_family_partitions(p, 12):
            e = sf.sign_exponent(sigma, p)
            assert e >= 0
            form = sf.frobenius(sigma)
            assert e == sum(form.legs) + form.rank


def test_super_schur_hand_values():
    one = sf.super_schur((1,), 1, 1)
    assert one == {(1, 0): 1, (0, 1): 1}
    s11 = sf.super_schur((1, 1), 1, 1)
    assert s11 == {(1, 1): 1, (0, 2): 1}
    s2 = sf.super_schur((2,), 1, 1)
    assert s2 == {(2, 0): 1, (1, 1): 1}
    assert sf.super_schur((2, 2), 1, 1) == {}


def test_super_schur_single_box_general():
    ch = sf.super_schur((1,), 2, 2)
    assert ch == {
        (1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}


def test_hook_vanishing_iff():
    for m in (1, 2):
        for n in (1, 2):
            for d in range(9):
                for la in sf.partitions_of(d):
                    zero = not sf.super_schur(la, m, n) and d > 0
                    if d == 0:
                        continue
                    assert zero == (not sf.in_hook(la, m, n)), (la, m, n)


def test_schur_specializes_to_ordinary():
    for la in [(2,), (1, 1), (2, 1), (3, 1)]:
        ch = sf.super_schur(la, 2, 0)
        ordinary = sf.schur_monomials(la, 2)
        assert ch == ordinary
    # too many rows for the variables: zero
    assert sf.super_schur((1, 1, 1), 2, 0) == {}


def test_lr_coefficients_against_polynomial_products():
    rng = random.Random(7)
    nvars = 6
    cases = [((1,), (1,)), ((2, 1), (1,)), ((2,), (2,)), ((2, 1), (2, 1)),
             ((3, 1), (2,))]
    for nu, sigma in cases:
        prod = {}
        for e1, c1 in sf.schur_monomials(nu, nvars).items():
            for e2, c2 in sf.schur_monomials(sigma, nvars).items():
                key = tuple(a + b for a, b in zip(e1, e2))
                prod[key] = prod.get(key, 0) + c1 * c2
        total = sum(nu) + sum(sigma)
        recon = {}
        for gamma in sf.partitions_of(total):
            c = sf.lr_coefficient(gamma, nu, sigma)
            if not c:
                continue
            for e, mult in sf.schur_monomials(gamma, nvars).items():
                recon[e] = recon.get(e, 0) + c * mult
        assert prod == recon, (nu, sigma)
    assert sf.lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert sf.lr_coefficient((2, 2), (2,), (1, 1)) == 0
    assert sf.lr_coefficient((2, 1, 1), (1, 1), (1, 1)) == 1


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_weight_series_equals_schur_sum(m, n):
    assert sf.weight_series_product(m, n, 6) == sf.verma_character(m, n, 6)


def level_totals(ch, cap):
    """Total multiplicity per total degree, degrees 0..cap."""
    totals = [0] * (cap + 1)
    for e, c in ch.items():
        totals[sum(e)] += c
    return totals


def test_verma_character_level_totals():
    ch = sf.verma_character(1, 1, 6)
    assert level_totals(ch, 6) == [1, 2, 4, 6, 8, 10, 12]
    assert ch[(0,) * 2] == 1
    ch = sf.verma_character(1, 1, 1)
    assert ch == {(0, 0): 1, (1, 0): 1, (0, 1): 1}


def test_irreducible_character_levels():
    # order 1 collapses to one fermion and one boson mode
    assert level_totals(sf.irreducible_character(1, 1, 1, 4), 4) \
        == [1, 2, 2, 2, 2]
    assert level_totals(sf.irreducible_character(1, 1, 2, 4), 4) \
        == [1, 2, 4, 4, 4]
    assert level_totals(sf.irreducible_character(1, 1, 3, 0), 0) == [1]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_irreducible_character_above_its_cap_is_the_cap_series(m, n):
    """Every width fits at p >= cap, so p > cap gives the p = cap
    coefficients, key order included, up to degree cap; a caller that
    writes into one character changes no other."""
    for cap in range(5):
        at_cap = sf.irreducible_character(m, n, cap, cap)
        before = list(at_cap.items())
        for p in range(cap + 1, cap + 4):
            ch = sf.irreducible_character(m, n, p, cap)
            assert list(ch.items()) == before
            assert all(sum(e) <= cap for e in ch)
            ch[(0,) * (m + n)] = 7
        assert list(sf.irreducible_character(m, n, cap + 1, cap).items()) \
            == before


def test_character_offsets_are_doubled_lowest_weight():
    """A character keys the vacuum by the zero content; its printed weight
    is patterns.doubled_weight's (-p,...,-p | p,...,p)."""
    assert sf.irreducible_character(2, 1, 3, 2)[(0, 0, 0)] == 1
    assert gz.doubled_weight((0, 0, 0), 2, 1, 3) == (-3, -3, 3)
    assert gz.doubled_weight((1, 0, 2), 2, 1, 3) == (-1, -3, 7)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_character_formula(m, n, p):
    rep = sf.character_formula_report(m, n, p, 5)
    assert rep["series_equal"]
    assert rep["lr_identity_failures"] == []


def test_truncated_character_arith():
    assert sf.weight_series_product(1, 0, 3) \
        == {(0,): 1, (1,): 1, (2,): 1, (3,): 1}
    assert sf.weight_series_product(1, 1, 2) == {
        (0, 0): 1, (1, 0): 1, (0, 1): 1, (2, 0): 1, (1, 1): 2, (0, 2): 1}


def naive_product(a, b, cap):
    """The product of two series, truncated at total degree cap, without
    zero coefficients."""
    coeffs = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            if sum(e1) + sum(e2) <= cap:
                key = tuple(x + y for x, y in zip(e1, e2))
                coeffs[key] = coeffs.get(key, 0) + c1 * c2
    return {e: c for e, c in coeffs.items() if c}


def random_series(rng, m, n, cap):
    coeffs = {}
    for _ in range(rng.randint(0, 12)):
        e = [0] * (m + n)
        for _ in range(rng.randint(0, cap)):  # one unit of degree at a time
            e[rng.randrange(m + n)] += 1
        coeffs[tuple(e)] = rng.choice([-2, -1, 1, 2])
    return coeffs


@pytest.mark.parametrize("seed", range(30))
def test_truncated_character_product_matches_naive(seed):
    rng = random.Random(seed)
    m, n = rng.choice([(1, 0), (0, 1), (1, 1), (2, 0), (0, 2), (2, 1), (1, 2),
                       (0, 3), (3, 0)])
    cap = seed % 7
    form = sf.weight_series_product(m, n, cap)
    for series in random_series(rng, m, n, cap), random_series(rng, m, n, cap):
        prod = sf._times_product_form(series, m, n, cap)
        assert prod == naive_product(form, series, cap)
        assert all(sum(e) <= cap and c for e, c in prod.items())


def random_series_at_cap(rng, m, n, cap):
    """random_series, plus terms with all of the degree cap in one variable:
    the largest value a packed slot holds."""
    series = random_series(rng, m, n, cap)
    for i in rng.sample(range(m + n), 2):
        e = [0] * (m + n)
        e[i] = cap
        series[tuple(e)] = rng.choice([-1, 1, 3])
    return series


@pytest.mark.parametrize("seed", range(24))
def test_truncated_character_product_matches_naive_at_the_carry_boundary(seed):
    rng = random.Random(1000 + seed)
    m, n = rng.choice([(3, 2), (2, 3), (5, 0), (0, 5), (3, 3), (4, 2), (2, 4),
                       (6, 0)])
    cap = 4 + seed % 7  # 4..10
    form = sf.weight_series_product(m, n, cap)
    for series in (random_series_at_cap(rng, m, n, cap),
                   random_series_at_cap(rng, m, n, cap)):
        prod = sf._times_product_form(series, m, n, cap)
        assert prod == naive_product(form, series, cap)
        assert any(max(e) == cap for e in prod)


def test_truncated_character_product_rejects_negative_exponent():
    # degree 1, inside 0..cap, but not a monomial the packing can hold
    with pytest.raises(ValueError, match="negative"):
        sf._times_product_form({(-1, 2): 1}, 1, 1, 3)
    with pytest.raises(ValueError, match="negative"):
        sf._times_product_form({(0, 0): 1, (-1, 2): 1}, 1, 1, 3)


def test_truncated_character_product_cancels_and_truncates():
    # (1 - x) / (1 - x) = 1, with every cancelled term dropped
    assert sf._times_product_form({(0,): 1, (1,): -1}, 1, 0, 4) == {(0,): 1}
    # y^3 at cap 3: every other term of the product form is cut
    assert sf._times_product_form({(0, 3): 1}, 1, 1, 3) == {(0, 3): 1}


def test_truncated_character_product_rejects_out_of_range_degree():
    with pytest.raises(ValueError):
        sf._times_product_form({(0, 0): 1, (-1, 0): 1}, 1, 1, 3)
    with pytest.raises(ValueError):
        sf._times_product_form({(0, 0): 1, (2, 2): 1}, 1, 1, 3)


def naive_product_form(series, m, n, cap):
    """Reference: series times every factor of the product form, each
    factor expanded as an unpacked series and multiplied in naively, the
    product truncated at total degree cap."""

    def mono(*idx):
        e = [0] * (m + n)
        for i in idx:
            e[i] += 1
        return tuple(e)

    xs, ys = range(m), range(m, m + n)
    binomials = [mono(i, j) for i in xs for j in ys]
    geometrics = ([mono(i) for i in xs]
                  + [mono(i, k) for i in xs for k in xs if i < k]
                  + [mono(j) for j in ys]
                  + [mono(j, l) for j in ys for l in ys if j < l])
    for t in binomials:
        series = naive_product(series, {(0,) * (m + n): 1, t: 1}, cap)
    for t in geometrics:
        factor = {tuple(k * x for x in t): 1
                  for k in range(cap // sum(t) + 1)}
        series = naive_product(series, factor, cap)
    return series


@pytest.mark.parametrize("m,n", [(m, n) for m in range(4) for n in range(4)
                                 if m + n])
def test_times_product_form_edge_cases(m, n):
    """Cap 0, no x or no y letters, and terms holding the whole degree cap
    in one variable, the largest value a packed slot holds."""
    rng = random.Random(100 * m + n)
    for cap in range(9):
        series = random_series(rng, m, n, cap)
        for i in range(m + n):
            e = [0] * (m + n)
            e[i] = cap
            series[tuple(e)] = rng.choice([-1, 1, 3])
        got = sf._times_product_form(series, m, n, cap)
        assert got == naive_product_form(series, m, n, cap), (m, n, cap)
        assert got == naive_product(sf.weight_series_product(m, n, cap),
                                    series, cap)
    assert sf._times_product_form({(0,) * (m + n): 5}, m, n, 0) \
        == {(0,) * (m + n): 5}
    assert sf._times_product_form({}, m, n, 4) == {}


# ---------------------------------------------------------------------------
# the branching rule and the in-place sums against the direct computations
# ---------------------------------------------------------------------------

def tableau_skew_schur(la, mu, nvars):
    """Reference: enumerate the semistandard fillings of la/mu with entries
    1..nvars row by row and count their contents."""
    la = sf.check_partition(la)
    mu = sf.check_partition(mu)
    if len(mu) > len(la) or any(mu[i] > la[i] for i in range(len(mu))):
        return {}
    rows = [(mu[i] if i < len(mu) else 0, la[i]) for i in range(len(la))]
    out = {}
    counts = [0] * nvars

    def fill(i, prev_row):
        if i == len(rows):
            key = tuple(counts)
            out[key] = out.get(key, 0) + 1
            return
        lo, hi = rows[i]
        row_vals = [0] * hi

        def fill_row(j, minval):
            if j == hi:
                fill(i + 1, row_vals)
                return
            lower = minval
            if i > 0 and rows[i - 1][0] <= j < len(prev_row) and prev_row[j]:
                lower = max(lower, prev_row[j] + 1)
            for v in range(lower, nvars + 1):
                counts[v - 1] += 1
                row_vals[j] = v
                fill_row(j + 1, v)
                counts[v - 1] -= 1
                row_vals[j] = 0

        fill_row(lo, 1)

    fill(0, [])
    return out


def test_branching_rule_matches_tableau_enumeration():
    shapes = [la for k in range(9) for la in sf.partitions_of(k)]
    for la in shapes:
        for mu in shapes:
            if sum(mu) > sum(la):
                continue
            for nvars in range(5):
                assert (sf.skew_schur_monomials(la, mu, nvars)
                        == tableau_skew_schur(la, mu, nvars)), (la, mu, nvars)


def test_branching_rule_edge_shapes():
    # a column taller than the number of letters cannot be filled
    assert sf.skew_schur_monomials((1,) * 5, (), 4) == {}
    assert sf.skew_schur_monomials((2, 2, 2), (1,), 2) == {}
    assert sf.skew_schur_monomials((3, 1), (2, 2), 3) == {}  # mu not in la
    assert sf.skew_schur_monomials((2, 1), (2, 1), 0) == {(): 1}
    assert sf.skew_schur_monomials((2, 1), (1,), 0) == {}
    assert sf.skew_schur_monomials((3, 1), (1,), 1) == {(3,): 1}
    assert sf.skew_schur_monomials((2, 0), (1, 0, 0), 2) == {(1, 0): 1, (0, 1): 1}


def test_schur_monomials_rejects_negative_variable_count():
    with pytest.raises(ValueError, match="negative"):
        sf.schur_monomials((2,), -2)


def test_skew_schur_monomials_rejects_negative_variable_count():
    with pytest.raises(ValueError, match="negative"):
        sf.skew_schur_monomials((2, 1), (), -1)


@functools.cache
def full_branching_skew_schur(la, mu, nvars):
    """Reference: the branching rule over every monomial, not only the
    decreasing ones, on normalised partitions.  s_{la/mu}(x_1..x_k) is the
    sum over nu with la/nu a horizontal strip of s_{nu/mu}(x_1..x_{k-1})
    x_k^|la/nu|."""
    if len(mu) > len(la) or any(a < b for a, b in zip(la, mu)):
        return {}
    inner = mu + (0,) * (len(la) - len(mu))
    if nvars == 0:
        return {(): 1} if la == mu else {}
    below = la[1:] + (0,)
    choices = [range(max(inner[i], below[i]), x + 1) for i, x in enumerate(la)]
    out = {}
    for rows in itertools.product(*choices):
        nu = tuple(x for x in rows if x)
        last = (sum(la) - sum(nu),)
        for e, c in full_branching_skew_schur(nu, mu, nvars - 1).items():
            out[e + last] = out.get(e + last, 0) + c
    return out


def test_decreasing_exponent_cache_matches_full_branching():
    shapes = [la for k in range(9) for la in sf.partitions_of(k)]
    for la in shapes:
        for mu in shapes:
            for nvars in range(5):
                assert (sf.skew_schur_monomials(la, mu, nvars)
                        == full_branching_skew_schur(la, mu, nvars)), \
                    (la, mu, nvars)
                assert all(list(e) == sorted(e, reverse=True)
                           for e in sf._skew_schur(la, mu, nvars)), \
                    (la, mu, nvars)


@functools.cache
def tableau_super_schur(la, m, n):
    """Reference: s_la(x_1..x_m | y_1..y_n) one partition at a time, as the
    sum over every tau inside la of the tableau counts of la/tau in m letters
    times those of tau' in n letters."""
    out = {}
    for k in range(sum(la) + 1):
        for tau in sf.partitions_of(k):
            for ex, cx in tableau_skew_schur(la, tau, m).items():
                for ey, cy in tableau_skew_schur(sf.conjugate(tau), (),
                                                 n).items():
                    out[ex + ey] = out.get(ex + ey, 0) + cx * cy
    return out


def reference_sum(m, n, cap, partitions, signs=None):
    """Sum of sign * s_la(x|y) over the partitions, one character at a time
    from the tableau enumerator, truncated at cap, without zero
    coefficients."""
    coeffs = {}
    for k, la in enumerate(partitions):
        for e, c in tableau_super_schur(la, m, n).items():
            coeffs[e] = coeffs.get(e, 0) + (signs[k] if signs else 1) * c
    return {e: c for e, c in coeffs.items() if c and sum(e) <= cap}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2), (0, 3), (3, 0)])
def test_super_schur_matches_tableau_enumeration(m, n):
    for k in range(8):
        for la in sf.partitions_of(k):
            assert (sf.super_schur(la, m, n)
                    == tableau_super_schur(la, m, n)), (la, m, n)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (3, 2), (0, 3), (3, 0)])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_in_place_sums_match_character_sums(m, n, p):
    for cap in range(8):
        hooks = [la for d in range(cap + 1) for la in sf.hook_partitions(d, m, n)]
        narrow = [la for la in hooks if not la or la[0] <= p]
        irreducible = reference_sum(m, n, cap, narrow)
        assert sf.irreducible_character(m, n, p, cap) == irreducible
        assert (sf.character_formula_report(m, n, p, cap)["irreducible"]
                == irreducible)
        assert (sf.verma_character(m, n, cap)
                == reference_sum(m, n, cap, hooks))
        sigmas = [s for s in sf.offset_family_partitions(p, cap)
                  if sf.in_hook(s, m, n)]
        signs = [(-1) ** sf.sign_exponent(s, p) for s in sigmas]
        cut = sf.alternating_cut_sum(m, n, p, cap)
        assert cut == reference_sum(m, n, cap, sigmas, signs)
        assert all(cut.values())  # cancelled terms are dropped


def test_lr_tableaux_of_any_content_sum_lr_coefficients():
    """The LR tableaux of shape gamma/sigma of every content number the sum
    over nu of c^gamma_(nu,sigma)."""
    shapes = [la for k in range(9) for la in sf.partitions_of(k)]
    checked = 0
    for gamma in shapes:
        d = sum(gamma)
        for sigma in shapes:
            if len(sigma) > len(gamma) or any(
                    s > g for s, g in zip(sigma, gamma)):
                continue
            want = sum(sf.lr_coefficient(gamma, nu, sigma)
                       for nu in sf.partitions_of(d - sum(sigma)))
            assert sf._lr_tableaux(gamma, sigma, None) == want, (gamma, sigma)
            checked += 1
    assert checked == 862  # pairs sigma inside gamma, |gamma| <= 8


def per_triple_lr_failures(p, cap):
    """Reference: the coefficient identity behind the character formula, one
    lr_coefficient(gamma, nu, sigma) per triple."""
    failures = []
    sigmas = [(sigma, sum(sigma), (-1) ** sf.sign_exponent(sigma, p))
              for sigma in sf.offset_family_partitions(p, cap)]
    for d in range(cap + 1):
        for gamma in sf.partitions_of(d):
            total = 0
            for sigma, ws, sign in sigmas:
                if ws > d:
                    continue
                for nu in sf.partitions_of(d - ws):
                    total += sign * sf.lr_coefficient(gamma, nu, sigma)
            expected = 1 if (not gamma or gamma[0] <= p) else 0
            if total != expected:
                failures.append({"gamma": list(gamma), "got": total,
                                 "expected": expected})
    return failures


@pytest.mark.parametrize("p", [1, 2, 3])
def test_lr_identity_matches_per_triple_loop(p):
    for cap in range(10):
        rep = sf.character_formula_report(1, 1, p, cap)
        assert rep["lr_identity_failures"] == per_triple_lr_failures(p, cap)


def test_lr_coefficient_normalises_its_input():
    for gamma in [(2, 1), (3, 2, 1), (3, 3, 2), (4, 2, 1, 1)]:
        d = sum(gamma)
        for k in range(d + 1):
            for nu in sf.partitions_of(k):
                for sigma in sf.partitions_of(d - k):
                    want = sf.lr_coefficient(gamma, nu, sigma)
                    assert sf.lr_coefficient(gamma + (0,), nu + (0, 0),
                                             sigma + (0,)) == want
    assert sf.lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2
    with pytest.raises(ValueError):
        sf.lr_coefficient((1, 2), (1,), (1,))
