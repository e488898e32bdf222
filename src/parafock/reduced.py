"""Closed-form reduced matrix elements and the diagonal recurrence that fixes them.

The printed closed forms contain factors of the shape ``indicator(...) + 1``
whose arithmetic reading is ambiguous, one suspected index typo, and boundary
configurations where a zero numerator factor is paired against a zero
denominator factor.  Rather than hard-coding one reading, every candidate is a
ParsingVariant, and select_parsing_variant_multi sweeps the diagonal
recurrence over all admissible (top row, subrow) configurations to find the
unique reading with identically vanishing residuals.  Values are exact:
squares are rational, square roots stay symbolic as (sign, radicand) pairs.

The recurrence has one evaluator, in integers, which residual_sweep and
select_parsing_variant_multi run.  A residual is a linear form in squared
matrix elements whose coefficients do not depend on p.  _top_terms builds
the term tables of all subrows of a top row from its raisable slots and
lowered rows, found once; each coefficient and each G_k^2 is an unreduced
(numerator, denominator) pair under the zero policy (_pair); _term_sum sums
a table to one pair, and the residual vanishes iff that numerator is
(p + shift) times its denominator.  The tables read only the zero policy, so
select_parsing_variant_multi builds them once per (m, n, level_max,
zero_policy), and it runs one sweep per domain and distinct reading
(boson_tail is read only where m >= 2); both in dicts of its own, so the
module keeps no state.  A sweep builds a Fraction only for each of its
values, one per (top row, slot, p), and for each failure sample it keeps:
at most MAX_FAILURE_SAMPLES nonzero residuals, which failure_count counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction

from . import patterns as gz


def parity_indicator(kind: str, j: int) -> int:
    """1 if j has the named parity ('E' even / 'O' odd), else 0."""
    if kind == "E":
        return 1 if j % 2 == 0 else 0
    if kind == "O":
        return 1 if j % 2 != 0 else 0
    raise ValueError(f"kind must be 'E' or 'O', got {kind!r}")


class UncancelledZeroError(ArithmeticError):
    """A denominator zero survived pairing; the parsing variant is wrong."""


@dataclass(frozen=True)
class ParsingVariant:
    """One complete arithmetic reading of the closed-form factors.

    eo_reading: how ``indicator_sub(expr) + 1`` evaluates --
        'indicator_times_arg'  -> indicator(sub) * expr + 1
        'indicator_of_sum'     -> indicator(sub + expr) + 1
    zero_policy: 'cancel_pairs' cancels zero numerator factors against zero
        denominator factors before division; 'strict' never cancels.
    boson_tail: which top-row entry feeds the last denominator family of the
        bosonic expressions -- 'boson_entry' uses the entry being raised,
        'as_printed' the entry at the bare position index.
    """

    eo_reading: str = "indicator_times_arg"
    zero_policy: str = "cancel_pairs"
    boson_tail: str = "boson_entry"

    def short(self) -> str:
        eo = "mult" if self.eo_reading == "indicator_times_arg" else "argsum"
        zp = "cancel" if self.zero_policy == "cancel_pairs" else "strict"
        bt = "boson" if self.boson_tail == "boson_entry" else "printed"
        return f"{eo}:{zp}:{bt}"

    @classmethod
    def from_short(cls, text: str) -> "ParsingVariant":
        eo, zp, bt = text.split(":")
        return cls(
            eo_reading={"mult": "indicator_times_arg",
                        "argsum": "indicator_of_sum"}[eo],
            zero_policy={"cancel": "cancel_pairs", "strict": "strict"}[zp],
            boson_tail={"boson": "boson_entry", "printed": "as_printed"}[bt],
        )


ALL_VARIANTS = tuple(
    ParsingVariant(eo, zp, bt)
    for eo in ("indicator_times_arg", "indicator_of_sum")
    for zp in ("cancel_pairs", "strict")
    for bt in ("boson_entry", "as_printed")
)

# fixed once by the recurrence sweep (see select_parsing_variant_multi and
# the tests)
DEFAULT_VARIANT = ParsingVariant()


@dataclass(frozen=True)
class SignedSqrtRational:
    """Exact value sign * sqrt(radicand), radicand a nonnegative rational."""

    sign: int
    radicand: Fraction

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0 or +1")
        if self.radicand < 0:
            raise ValueError("radicand must be nonnegative")
        if (self.sign == 0) != (self.radicand == 0):
            raise ValueError("sign is 0 exactly when the radicand is 0")


def _eo_factor(kind: str, sub: int, arg, variant: ParsingVariant):
    if variant.eo_reading == "indicator_times_arg":
        return parity_indicator(kind, sub) * arg + 1
    return parity_indicator(kind, sub + arg) + 1


def _pair(num_factors, den_factors, sign: int, zero_policy: str):
    """sign * prod(num_factors) / prod(den_factors) as an unreduced integer
    (numerator, denominator) pair under the zero policy, or None where a zero
    denominator factor survives pairing.

    Zeros are counted on the raw factors; 'cancel_pairs' drops one numerator
    zero per denominator zero.  The nonzero factors (integers in every closed
    form) are multiplied as they come.
    """
    num_zeros = num_factors.count(0)
    den_zeros = den_factors.count(0)
    if zero_policy == "cancel_pairs":
        cancel = min(num_zeros, den_zeros)
        num_zeros -= cancel
        den_zeros -= cancel
    if den_zeros:
        return None
    if num_zeros:
        return 0, 1
    return (sign * math.prod(filter(None, num_factors)),
            math.prod(filter(None, den_factors)))


def _ratio(num_factors, den_factors, variant: ParsingVariant) -> Fraction:
    """_pair of the factor lists as a Fraction; raises UncancelledZeroError
    where a zero denominator factor survives pairing."""
    pair = _pair(num_factors, den_factors, 1, variant.zero_policy)
    if pair is None:
        raise UncancelledZeroError(
            f"zero denominator factor survives pairing (policy "
            f"{variant.zero_policy})")
    return Fraction(*pair)


# ---------------------------------------------------------------------------
# squared reduced matrix elements
# ---------------------------------------------------------------------------

def _squared_factors(top, k, p, m, n, variant):
    """(numerator list, denominator list, outer sign) for the k-th transition."""
    mu = lambda i: top[i - 1]
    if k <= m and k % 2 == 0:
        num = [_eo_factor("E", m, mu(k) + m - n - k, variant)]
        num += [mu(k) - mu(j) - k + j for j in range(1, m + 1) if j != k]
        num += [mu(k) + mu(m + j) + m - j - k + 2 for j in range(1, n + 1)]
        den = []
        for j in range(1, m // 2 + 1):
            if j == k // 2:
                continue
            den.append(mu(k) - mu(2 * j) - k + 2 * j)
            den.append(mu(k) - mu(2 * j) - k + 2 * j + 1)
        den += [
            mu(k) + mu(m + j) + m - j - k + 2
            - parity_indicator("E", m + mu(m + j))
            for j in range(1, n + 1)
        ]
        return num, den, -1
    if k <= m:
        num = [p - mu(k) + k - 1,
               _eo_factor("O", m, mu(k) + m - n - k, variant)]
        num += [mu(k) - mu(j) - k + j for j in range(1, m + 1) if j != k]
        num += [mu(k) + mu(m + j) + m - j - k + 2 for j in range(1, n + 1)]
        den = []
        for j in range(1, (m + 1) // 2 + 1):
            if j == (k + 1) // 2:
                continue
            den.append(mu(k) - mu(2 * j - 1) - k + 2 * j - 1)
            den.append(mu(k) - mu(2 * j - 1) - k + 2 * j)
        den += [
            mu(k) + mu(m + j) + m - j - k + 2
            - parity_indicator("O", m + mu(m + j))
            for j in range(1, n + 1)
        ]
        return num, den, +1
    # bosonic slots
    kp = k - m
    mk = mu(m + kp)
    num = [
        _eo_factor("O", mk, mk - kp + n, variant),
        _eo_factor("E", m + mk, p + mk + m - kp, variant),
    ]
    num += [
        _eo_factor("E", m + mk, mu(2 * j) + mk - 2 * j - kp + m + 1, variant)
        for j in range(1, m // 2 + 1)
    ]
    num += [
        _eo_factor("O", m + mk, mu(2 * j - 1) + mk - 2 * j - kp + m + 2, variant)
        for j in range(1, (m + 1) // 2 + 1)
    ]
    num += [mu(m + j) - mk - j + kp for j in range(1, n + 1) if j != kp]
    den = [
        _eo_factor("E", m + mk, mu(2 * j - 1) + mk - 2 * j - kp + m + 1, variant)
        for j in range(1, (m + 1) // 2 + 1)
    ]
    tail_entry = mk if variant.boson_tail == "boson_entry" else mu(kp)
    den += [
        _eo_factor("O", m + mk, mu(2 * j) + tail_entry - 2 * j - kp + m, variant)
        for j in range(1, m // 2 + 1)
    ]
    den += [
        mu(m + j) - mk - j + kp
        - parity_indicator("O", mu(m + j) - mk)
        for j in range(1, n + 1) if j != kp
    ]
    return num, den, +1


def reduced_me_squared(top, k: int, p: int, m: int, n: int,
                       variant: ParsingVariant = DEFAULT_VARIANT) -> Fraction:
    """Square of the reduced matrix element for raising slot k of a top row.

    Returns 0 when the raised row is not an admissible top row (that
    transition does not exist in the module).
    """
    top = tuple(top)
    r = m + n
    if not 1 <= k <= r:
        raise ValueError(f"slot {k} out of range 1..{r}")
    if not gz.top_row_is_valid(top, m, n):
        raise ValueError(f"invalid top row {top}")
    if gz.raise_top_row(top, m, n, k) is None:
        return Fraction(0)
    num, den, outer = _squared_factors(top, k, p, m, n, variant)
    return outer * _ratio(num, den, variant)


def reduced_me(top, k: int, p: int, m: int, n: int,
               variant: ParsingVariant = DEFAULT_VARIANT) -> SignedSqrtRational:
    """Reduced matrix element as an exact signed square root."""
    sq = reduced_me_squared(top, k, p, m, n, variant)
    if sq < 0:
        raise ArithmeticError(
            f"negative squared matrix element {sq} at top={top}, k={k}, p={p}")
    if sq == 0:
        return SignedSqrtRational(0, Fraction(0))
    if k <= m:
        return SignedSqrtRational(1, sq)
    expo = sum(top[i - 1] for i in range(k + 1, m + n + 1))
    return SignedSqrtRational(-1 if expo % 2 else 1, sq)


# ---------------------------------------------------------------------------
# the diagonal recurrence
# ---------------------------------------------------------------------------

def _top_terms(top, subrows, m: int, n: int, zero_policy: str):
    """The p-free term tables of the diagonal two-row recurrence at a top
    row, for subrows from patterns.valid_subrows.

    Returns (raisable, tables): the slots of top whose raise is admissible,
    and (subrow, terms, shift) per subrow.  The residual at order p is

        sum(c * G_k^2(source) over ((source, k), c) in terms) - (p + shift)

    (_term_sum, then _sweep's comparison).  The source is top itself to
    raise slot k and top lowered at slot k to lower it.  A term whose raised
    or lowered top row is inadmissible is absent from the module, its G_k^2
    is 0 at every p, and it is left out.  c is the paired numerator and
    denominator factors' _pair under zero_policy, or None where a zero
    denominator factor survives pairing; such a term fails the residual
    only against a nonzero G_k^2.  The raisable slots and the lowered rows
    of top are found once, for all its subrows.

    With mu the top row, nu the subrow, j over the fermionic slots 1..m and
    s over the bosonic ones, the coefficient at slot k and entry x (mu_k to
    raise, mu_k - 1 to lower from the lowered row) has the factors

      fermion i  num  x - mu_j - i + j + 1 (j != i), x + nu_s + 2m - i - s + 1
                 den  x - nu_j - i + j (j != i),     x + mu_s + 2m - i - s + 2
      boson q    num  mu_j + x + 2m - j - q + 1,     x - nu_s - q + s + 1
                 den  nu_j + x + 2m - j - q + 2,     x - mu_s - q + s (s != q)

    with s < m + n wherever nu_s is read.  Below, each entry is taken as its
    offset from its slot index, and x as its offset from k.
    """
    if n < 1:
        raise ValueError("the diagonal recurrence needs a bosonic last slot")
    r = m + n
    raisable = tuple(k for k in range(1, r + 1)
                     if gz.raise_top_row(top, m, n, k) is not None)
    lowered = (None,) + tuple(gz.lower_top_row(top, m, n, k)
                              for k in range(1, r + 1))
    mu_f = [top[j - 1] - j for j in range(1, m + 1)]
    mu_b = [top[s - 1] - s for s in range(m + 1, r + 1)]
    # (source row, x - k, top row's numerator and denominator factors) of
    # each term: fermion slot i raising (theta 0) or lowering (theta 1), and
    # boson slot q raising, then lowering
    fermions = {}
    for i in range(1, m + 1):
        for theta, source in ((0, top if i in raisable else None),
                              (1, lowered[i])):
            if source is not None:
                x = top[i - 1] - theta - i
                fermions[i, theta] = (
                    source, x,
                    [x + 1 - e for j, e in enumerate(mu_f, 1) if j != i],
                    [x + 2 * m + 2 + e for e in mu_b])
    bosons = []
    for q in range(m + 1, r + 1):
        for lower, source in ((0, top if q in raisable else None),
                              (1, lowered[q])):
            if source is not None:
                x = top[q - 1] - lower - q
                bosons.append((
                    q, source, x, [x + 2 * m + 1 + e for e in mu_f],
                    [x - e for s, e in enumerate(mu_b, m + 1) if s != q]))
    tables = []
    for subrow in subrows:
        nu_f = [subrow[j - 1] - j for j in range(1, m + 1)]
        nu_b = [subrow[s - 1] - s for s in range(m + 1, r)]
        terms = []
        for i in range(1, m + 1):
            theta = top[i - 1] - subrow[i - 1]
            if (i, theta) not in fermions:
                continue
            source, x, num, den = fermions[i, theta]
            num = num + [x + 2 * m + 1 + e for e in nu_b]
            den = [x - e for j, e in enumerate(nu_f, 1) if j != i] + den
            terms.append(((source, i), _pair(num, den, 1, zero_policy)))
        for q, source, x, num, den in bosons:
            num = num + [x + 1 - e for e in nu_b]
            den = [x + 2 * m + 2 + e for e in nu_f] + den
            terms.append(((source, q), _pair(num, den, 1, zero_policy)))
        tables.append((subrow, terms, 2 * (sum(top) - sum(subrow))))
    return raisable, tables


def _term_sum(terms, squares):
    """sum(c * G_k^2) over a term table, as one unreduced integer pair.

    terms holds (key, coefficient pair), the pair None where it is missing,
    and squares maps each key to its G_k^2 pair, or to None for an
    uncancelled zero.  Returns None where a G_k^2 read has an uncancelled
    zero, or where a term with nonzero G_k^2 has no coefficient; a missing
    coefficient against G_k^2 = 0 drops out.
    """
    num, den = 0, 1
    for key, c in terms:
        g = squares[key]
        if g is None:
            return None
        g_num, g_den = g
        if not g_num:
            continue
        if c is None:
            return None
        c_num, c_den = c
        d = c_den * g_den
        num = num * d + c_num * g_num * den
        den *= d
    return num, den


# ---------------------------------------------------------------------------
# variant selection
# ---------------------------------------------------------------------------

MAX_FAILURE_SAMPLES = 10


def recurrence_configs(m: int, n: int, level_max: int):
    """All admissible (top row, subrow) pairs with level <= level_max."""
    for level in range(level_max + 1):
        for top in gz.top_rows_for_level(m, n, level):
            for subrow in gz.valid_subrows(top, m, n):
                yield top, subrow


def _prepare(m: int, n: int, level_max: int, zero_policy: str):
    """residual_sweep's p-free half: (top row, raisable slots, tables) per
    top row in recurrence_configs order, from _top_terms."""
    return tuple(
        (top, *_top_terms(top, [subrow for _, subrow in group], m, n,
                          zero_policy))
        for top, group in itertools.groupby(
            recurrence_configs(m, n, level_max), key=lambda c: c[0]))


def residual_sweep(m: int, n: int, p_values, level_max: int,
                   variant: ParsingVariant) -> dict:
    """Run the recurrence over the whole config range under one variant.

    The term tables come from _prepare, built for this call only.  For each
    p in p_values the sweep holds one G_k^2 pair per raisable (top row,
    slot), from the closed form (None for an uncancelled zero), and checks
    every residual of that order in integers against them.  A config is an
    error where its residual reads an uncancelled zero, or where a raisable
    slot of its own top row has one.  values, keyed (top row, slot, p), are
    the G_k^2 of each top row with an evaluated residual, up to its first
    uncancelled zero.  failures keeps the first MAX_FAILURE_SAMPLES nonzero
    residuals and failure_count counts them, so it is capped too; ok is
    False on any nonzero residual or error.
    """
    return _sweep(m, n, p_values, level_max, variant, {})


def _sweep(m: int, n: int, p_values, level_max: int, variant: ParsingVariant,
           tables: dict) -> dict:
    """residual_sweep, reading _prepare's result from tables, keyed
    (m, n, level_max, zero policy), and filling it there when absent."""
    key = (m, n, level_max, variant.zero_policy)
    if key not in tables:
        tables[key] = _prepare(*key)
    tops = tables[key]
    configs = 0
    failures = []
    errors = 0
    values = {}
    for p in p_values:
        squares = {(top, k): _pair(*_squared_factors(top, k, p, m, n, variant),
                                   variant.zero_policy)
                   for top, raisable, _ in tops for k in raisable}
        for top, raisable, subrows in tops:
            intact = all(squares[top, k] is not None for k in raisable)
            evaluated = False
            for subrow, terms, shift in subrows:
                configs += 1
                total = _term_sum(terms, squares)
                evaluated |= total is not None
                if total is None or not intact:
                    errors += 1
                    continue
                num, den = total
                if (num != (p + shift) * den
                        and len(failures) < MAX_FAILURE_SAMPLES):
                    failures.append({
                        "top": list(top), "subrow": list(subrow), "p": p,
                        "residual": str(Fraction(num - (p + shift) * den,
                                                 den))})
            if evaluated:
                for k in raisable:
                    if squares[top, k] is None:
                        break
                    values[top, k, p] = Fraction(*squares[top, k])
    return {"m": m, "n": n, "level_max": level_max,
            "p_values": list(p_values), "variant": variant.short(),
            "configs": configs, "failures": failures,
            "failure_count": len(failures), "errors": errors,
            "values": values,
            "ok": not failures and not errors}


class VariantSelectionError(RuntimeError):
    """Zero or several observationally distinct variants survived the sweep."""


def select_parsing_variant_multi(domains, p_samples, level_max: int) -> dict:
    """Pick the unique zero-residual reading of the closed forms jointly
    across several (m, n) domains.

    A variant survives when its sweep is clean on every domain.  Variants
    that agree on every evaluated squared matrix element over the sweeps are
    observationally identical and count as one; several *distinct* survivors
    (or none) raise VariantSelectionError.  boson_tail is read only by a
    family that is empty when m <= 1, so there the two tail readings share
    one sweep, recorded under each variant's own name.
    """
    p_samples = list(p_samples)
    alive = {}
    per_variant = []
    term_tables = {}  # this selection's, shared by all its variants
    sweeps = {}  # this selection's, one per domain and distinct reading
    for variant in ALL_VARIANTS:
        values = []  # the sweeps' values, in domain order
        for (m, n) in domains:
            reading = (variant if m >= 2
                       else replace(variant, boson_tail="boson_entry"))
            if (m, n, reading) not in sweeps:
                sweeps[m, n, reading] = _sweep(m, n, p_samples, level_max,
                                               reading, term_tables)
            sweep = sweeps[m, n, reading]
            per_variant.append({k: v for k, v in sweep.items() if k != "values"}
                               | {"variant": variant.short()})
            if not sweep["ok"]:
                break
            values.append(sweep["values"])
        else:
            alive[variant] = values
    if not alive:
        raise VariantSelectionError("no variant survives the joint sweep")
    first, *others = alive.values()
    if any(other != first for other in others):
        raise VariantSelectionError(
            "distinct variants survive the joint sweep: "
            + ", ".join(v.short() for v in alive))
    chosen = DEFAULT_VARIANT if DEFAULT_VARIANT in alive else next(iter(alive))
    return {"domains": list(domains), "p_samples": p_samples,
            "level_max": level_max, "selected": chosen,
            "survivors": [v.short() for v in alive],
            "per_variant": per_variant}
