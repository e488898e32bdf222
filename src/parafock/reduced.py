"""Closed-form reduced matrix elements and the diagonal recurrence that fixes them.

The printed closed forms contain factors of the shape ``indicator(...) + 1``
whose arithmetic reading is ambiguous, one suspected index typo, and boundary
configurations where a zero numerator factor is paired against a zero
denominator factor.  Rather than hard-coding one reading, every candidate is a
ParsingVariant, and select_parsing_variant_multi sweeps the diagonal
recurrence over all admissible (top row, subrow) configurations to find the
unique reading with identically vanishing residuals.  Values are exact:
squares are rational, square roots stay symbolic as (sign, radicand) pairs.

A recurrence residual is a linear form in squared matrix elements whose
coefficients do not depend on p.  recurrence_terms builds that term table
(source top row, slot, coefficient) once per (top row, subrow), and
residual_from_terms evaluates it at one order.  The term tables read only the
zero policy, so select_parsing_variant_multi builds every config's table once
per (m, n, level_max, zero_policy) in a dict of its own and hands it to the
sweeps of all parsing variants; the module keeps no state.  For each order p,
residual_sweep fills a table of G_k^2 keyed by (top row, slot) that every
residual of that order and the sweep's own values read.  A sweep keeps at
most MAX_FAILURE_SAMPLES nonzero residuals, and its failure_count counts
those samples, not every nonzero residual.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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


def _ratio(num_factors, den_factors, variant: ParsingVariant) -> Fraction:
    """Divide factor products under the variant's zero-cancellation policy.

    Zeros are counted on the raw factors; 'cancel_pairs' drops one numerator
    zero per denominator zero.  The nonzero factors are multiplied as they
    come (integers in every closed form) and divided once.
    """
    num_zeros = num_factors.count(0)
    den_zeros = den_factors.count(0)
    if variant.zero_policy == "cancel_pairs":
        cancel = min(num_zeros, den_zeros)
        num_zeros -= cancel
        den_zeros -= cancel
    if den_zeros:
        raise UncancelledZeroError(
            f"zero denominator factor survives pairing (policy "
            f"{variant.zero_policy})")
    if num_zeros:
        return Fraction(0)
    return Fraction(math.prod(x for x in num_factors if x),
                    math.prod(x for x in den_factors if x))


# ---------------------------------------------------------------------------
# squared reduced matrix elements
# ---------------------------------------------------------------------------

def _squared_factors(top, k, p, m, n, variant):
    """(numerator list, denominator list, outer sign) for the k-th transition."""
    r = m + n
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

def _squared(squares: dict, top, k: int, p: int, m: int, n: int,
             variant: ParsingVariant) -> Fraction:
    """reduced_me_squared(top, k, ...) read through a table keyed by (top, k).

    The table belongs to one (m, n, p, variant).  An uncancelled zero is
    stored as None and raised again on every read.
    """
    key = (top, k)
    if key not in squares:
        try:
            squares[key] = reduced_me_squared(top, k, p, m, n, variant)
        except UncancelledZeroError:
            squares[key] = None
    g = squares[key]
    if g is None:
        raise UncancelledZeroError(
            f"G_{k}^2 at top row {top} has an uncancelled zero (policy "
            f"{variant.zero_policy})")
    return g


def _coefficient(num_factors, den_factors, variant: ParsingVariant):
    """_ratio of the factor lists, or None where a zero denominator factor
    survives pairing."""
    try:
        return _ratio(num_factors, den_factors, variant)
    except UncancelledZeroError:
        return None


def recurrence_terms(top, subrow, m: int, n: int,
                     variant: ParsingVariant = DEFAULT_VARIANT):
    """The p-free half of the diagonal two-row recurrence at (top, subrow).

    Returns (terms, shift).  The residual at order p is

        sum(c * G_k^2(source) for source, k, c in terms) - (p + shift)

    (see residual_from_terms).  Each term is (source top row, slot k,
    coefficient c).  A term whose raised or lowered top row is inadmissible
    is absent from the module, its G_k^2 is 0 at every p, and it is left
    out.  c is the paired numerator/denominator factor ratio under the
    variant's zero policy, or None where a zero denominator factor survives
    pairing; of the variant only zero_policy is read.
    """
    if n < 1:
        raise ValueError("the diagonal recurrence needs a bosonic last slot")
    r = m + n
    top = tuple(top)
    subrow = tuple(subrow)
    if len(subrow) != r - 1:
        raise ValueError("subrow must have length m+n-1")
    mu = lambda i: top[i - 1]
    nu = lambda i: subrow[i - 1]
    terms = []

    # a lowering term's factors are the raising term's, read at the lowered
    # entry x = mu_i - 1; the other entries of the two rows agree
    def fermion_term(i, x, source):
        num = [x - mu(j) - i + j + 1 for j in range(1, m + 1) if j != i]
        num += [x + nu(s) + 2 * m - i - s + 1 for s in range(m + 1, r)]
        den = [x - nu(j) - i + j for j in range(1, m + 1) if j != i]
        den += [x + mu(s) + 2 * m - i - s + 2 for s in range(m + 1, r + 1)]
        terms.append((source, i, _coefficient(num, den, variant)))

    def boson_term(q, x, source):
        num = [mu(j) + x + 2 * m - j - q + 1 for j in range(1, m + 1)]
        num += [x - nu(s) - q + s + 1 for s in range(m + 1, r)]
        den = [nu(j) + x + 2 * m - j - q + 2 for j in range(1, m + 1)]
        den += [x - mu(s) - q + s for s in range(m + 1, r + 1) if s != q]
        terms.append((source, q, _coefficient(num, den, variant)))

    for i in range(1, m + 1):
        theta = mu(i) - nu(i)
        if theta not in (0, 1):
            raise ValueError(f"invalid theta step at slot {i}")
        if theta == 0 and gz.raise_top_row(top, m, n, i) is not None:
            fermion_term(i, mu(i), top)
        if theta == 1:
            lowered = gz.lower_top_row(top, m, n, i)
            if lowered is not None:
                fermion_term(i, mu(i) - 1, lowered)

    for q in range(m + 1, r + 1):
        if gz.raise_top_row(top, m, n, q) is not None:
            boson_term(q, mu(q), top)
        lowered = gz.lower_top_row(top, m, n, q)
        if lowered is not None:
            boson_term(q, mu(q) - 1, lowered)

    return terms, 2 * (sum(top) - sum(subrow))


def residual_from_terms(terms, shift: int, p: int, m: int, n: int,
                        variant: ParsingVariant, squares: dict) -> Fraction:
    """Evaluate a recurrence_terms table at order p.

    G_k^2 is read through squares, the (top, k) table of this (m, n, p,
    variant), which the call fills.  The sum is kept as one integer
    numerator and denominator and becomes a single Fraction.  Raises
    UncancelledZeroError where a G_k^2 read has an uncancelled zero, or
    where a term with nonzero G_k^2 has no coefficient; a missing
    coefficient against G_k^2 = 0 drops out.
    """
    num, den = 0, 1
    for source, k, coefficient in terms:
        g = _squared(squares, source, k, p, m, n, variant)
        if not g:
            continue
        if coefficient is None:
            raise UncancelledZeroError(
                f"the coefficient of G_{k}^2 at top row {source} has an "
                f"uncancelled zero (policy {variant.zero_policy})")
        d = coefficient.denominator * g.denominator
        num = num * d + coefficient.numerator * g.numerator * den
        den *= d
    return Fraction(num - (p + shift) * den, den)


def recurrence_residual(top, subrow, p: int, m: int, n: int,
                        variant: ParsingVariant = DEFAULT_VARIANT) -> Fraction:
    """Left side minus right side of the diagonal two-row recurrence.

    The p-free term table of recurrence_terms, evaluated at p by
    residual_from_terms through a fresh G_k^2 table.  To share one table
    across residuals of one order, call residual_from_terms (as
    residual_sweep does).
    """
    terms, shift = recurrence_terms(top, subrow, m, n, variant)
    return residual_from_terms(terms, shift, p, m, n, variant, {})


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
    """residual_sweep's p-free half: (configs, slots).  configs holds (top
    row, subrow, recurrence_terms table, shift, raisable slots of the top
    row) in recurrence_configs order, slots each raisable (top row, slot)."""
    variant = ParsingVariant(zero_policy=zero_policy)
    raisable = {}
    configs = []
    for top, subrow in recurrence_configs(m, n, level_max):
        if top not in raisable:
            raisable[top] = tuple(k for k in range(1, m + n + 1) if
                                  gz.raise_top_row(top, m, n, k) is not None)
        terms, shift = recurrence_terms(top, subrow, m, n, variant)
        configs.append((top, subrow, tuple(terms), shift, raisable[top]))
    return tuple(configs), tuple((top, k) for top in raisable
                                 for k in raisable[top])


def residual_sweep(m: int, n: int, p_values, level_max: int,
                   variant: ParsingVariant) -> dict:
    """Run the recurrence over the whole config range under one variant.

    The configs, their recurrence_terms tables and the raisable slots of
    each top row come from _prepare, built for this call only.  For each p
    in p_values, the sweep fills one (top row, slot) -> G_k^2 table from the
    closed form at every raisable slot (None for an uncancelled zero; the
    rows and slots are admissible, so reduced_me_squared's checks are not
    repeated).  Every residual of that order is evaluated through it
    (residual_from_terms), and the returned values, keyed (top row, slot,
    p), are its entries for the raisable slots of each top row whose
    residual evaluated.

    failures keeps the first MAX_FAILURE_SAMPLES nonzero residuals, and
    failure_count is the number of samples kept, so it is capped at
    MAX_FAILURE_SAMPLES too; ok is False on any nonzero residual.
    """
    return _sweep(m, n, p_values, level_max, variant, {})


def _sweep(m: int, n: int, p_values, level_max: int, variant: ParsingVariant,
           tables: dict) -> dict:
    """residual_sweep, reading _prepare's result from tables, keyed
    (m, n, level_max, zero policy), and filling it there when absent."""
    key = (m, n, level_max, variant.zero_policy)
    if key not in tables:
        tables[key] = _prepare(*key)
    prepared, slots = tables[key]
    configs = 0
    failures = []
    errors = 0
    values = {}
    for p in p_values:
        squares = {}
        for top, k in slots:
            num, den, outer = _squared_factors(top, k, p, m, n, variant)
            ratio = _coefficient(num, den, variant)
            squares[(top, k)] = None if ratio is None else outer * ratio
        for top, subrow, terms, shift, raisable in prepared:
            configs += 1
            try:
                res = residual_from_terms(terms, shift, p, m, n, variant,
                                          squares)
                for k in raisable:
                    values[(top, k, p)] = _squared(
                        squares, top, k, p, m, n, variant)
            except UncancelledZeroError:
                errors += 1
                continue
            if res != 0:
                if len(failures) < MAX_FAILURE_SAMPLES:
                    failures.append({"top": list(top), "subrow": list(subrow),
                                     "p": p, "residual": str(res)})
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
    (or none) raise VariantSelectionError.
    """
    p_samples = list(p_samples)
    alive = {}
    per_variant = []
    term_tables = {}  # this selection's, shared by all its variants
    for variant in ALL_VARIANTS:
        combined = {}
        for (m, n) in domains:
            sweep = _sweep(m, n, p_samples, level_max, variant, term_tables)
            per_variant.append({k: v for k, v in sweep.items() if k != "values"})
            if not sweep["ok"]:
                break
            for key, val in sweep["values"].items():
                combined[(m, n) + key] = val
        else:
            alive[variant] = combined
    if not alive:
        raise VariantSelectionError("no variant survives the joint sweep")
    tables = {frozenset(tab.items()) for tab in alive.values()}
    if len(tables) > 1:
        raise VariantSelectionError(
            "distinct variants survive the joint sweep: "
            + ", ".join(v.short() for v in alive))
    chosen = DEFAULT_VARIANT if DEFAULT_VARIANT in alive else next(iter(alive))
    return {"domains": list(domains), "p_samples": p_samples,
            "level_max": level_max, "selected": chosen,
            "survivors": [v.short() for v in alive],
            "per_variant": per_variant}
