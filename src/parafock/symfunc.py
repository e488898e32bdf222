"""Partition combinatorics, supersymmetric Schur functions and characters.

Everything here is exact integer arithmetic.  A character, like every series
here, is a plain dict {creation content: multiplicity}: the exponent vector
of x_1..x_m, y_1..y_n keyed to a nonzero integer coefficient, up to a total
degree.  The vacuum shift is not applied here; it is applied only where a
weight is printed, through patterns.doubled_weight.  Schur-type
polynomials are computed by the branching rule, one variable at a time, with
each intermediate skew shape cached (no determinants, no division).  The
cache holds only the coefficients at weakly decreasing exponent vectors;
symmetry gives the rest, and each vector is spread over its distinct
permutations when a full expansion is needed.

Partitions are validated once, where they enter a public function; the
recursions below work on normalised tuples.  A sum of supersymmetric Schur
polynomials s_la(x|y) = sum_tau s_{la/tau}(x) s_{tau'}(y) is taken one inner
shape tau at a time: the x-parts of every la are added first, then each tau
takes one product with its y-part.  The coefficient identity behind the
character formula counts Littlewood-Richardson tableaux once per
(gamma, sigma), every content at once, instead of once per triple.  The
closed product form of the Verma character is applied to a series factor by
factor, never expanded and multiplied in.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import lru_cache


# ---------------------------------------------------------------------------
# partitions
# ---------------------------------------------------------------------------

def check_partition(la) -> tuple[int, ...]:
    """Normalize to a tuple of ints, dropping trailing zeros; raise if not a
    partition.  A part must equal its int(): 2.5 is an error, not 2."""
    given = tuple(la)
    parts = tuple(int(x) for x in given)
    if parts != given:
        raise ValueError(f"non-integer part in {la!r}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {la!r}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"parts not weakly decreasing in {la!r}")
    return parts


def conjugate(la) -> tuple[int, ...]:
    la = check_partition(la)
    if not la:
        return ()
    return tuple(sum(1 for x in la if x > j) for j in range(la[0]))


def weight(la) -> int:
    return sum(la)


@dataclass(frozen=True)
class FrobeniusForm:
    """Diagonal hook data of a partition: arm lengths and leg lengths."""

    arms: tuple[int, ...]
    legs: tuple[int, ...]

    @property
    def rank(self) -> int:
        return len(self.arms)


def frobenius(la) -> FrobeniusForm:
    """Arm/leg encoding: arms[k] = la[k]-k-1 boxes right of diagonal box k."""
    la = check_partition(la)
    lac = conjugate(la)
    r = 0
    while r < len(la) and la[r] >= r + 1:
        r += 1
    arms = tuple(la[k] - (k + 1) for k in range(r))
    legs = tuple(lac[k] - (k + 1) for k in range(r))
    return FrobeniusForm(arms, legs)


def from_frobenius(form: FrobeniusForm) -> tuple[int, ...]:
    arms, legs = form.arms, form.legs
    r = len(arms)
    if len(legs) != r:
        raise ValueError("arm/leg length mismatch")
    if any(arms[i] <= arms[i + 1] for i in range(r - 1)) or any(
        legs[i] <= legs[i + 1] for i in range(r - 1)
    ):
        raise ValueError("arms and legs must be strictly decreasing")
    if any(a < 0 for a in arms) or any(b < 0 for b in legs):
        raise ValueError("arms and legs must be nonnegative")
    rows = [arms[k] + k + 1 for k in range(r)]
    depth = legs[0] + 1 if r else 0
    for i in range(r + 1, depth + 1):
        rows.append(sum(1 for k in range(r) if legs[k] + k + 1 >= i))
    return check_partition(rows)


def in_hook(la, m: int, n: int) -> bool:
    """(m|n)-hook membership: the (m+1)-th part is at most n."""
    la = check_partition(la)
    return (la[m] if m < len(la) else 0) <= n


def has_arm_leg_offset(la, p: int) -> bool:
    """True iff every Frobenius arm exceeds its leg by exactly p (rank 0 counts)."""
    form = frobenius(la)
    if form.rank == 0:
        return True
    return all(a - b == p for a, b in zip(form.arms, form.legs))


def sign_exponent(sigma, p: int) -> int:
    """Exponent (|sigma| - rank*(p-1))/2 of the alternating character sum; must be integral."""
    sigma = check_partition(sigma)
    r = frobenius(sigma).rank
    num = weight(sigma) - r * (p - 1)
    if num % 2 != 0:
        raise ArithmeticError(f"non-integral sign exponent for {sigma}, p={p}")
    return num // 2


def partitions_of(k: int, max_part: int | None = None):
    """Yield all partitions of k with parts bounded by max_part, largest first."""
    if k < 0:
        return
    if max_part is None:
        max_part = k
    if k == 0:
        yield ()
        return
    for first in range(min(k, max_part), 0, -1):
        for rest in partitions_of(k - first, first):
            yield (first,) + rest


def hook_partitions(k: int, m: int, n: int, max_width: int | None = None):
    """Partitions of k in the (m|n)-hook, optionally with first part <= max_width."""
    for la in partitions_of(k, max_width):
        if len(la) <= m or la[m] <= n:  # in_hook, on a normalised partition
            yield la


def offset_family_partitions(p: int, max_weight: int):
    """All partitions of weight <= max_weight whose arms exceed legs by exactly p.

    Generated directly from strictly decreasing leg sequences, so no scan over
    all partitions is needed.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    out = [()]

    def extend(legs, used):
        hi = (legs[-1] - 1) if legs else (max_weight - p - 1) // 2
        for b in range(hi, -1, -1):
            w = used + 2 * b + p + 1
            if w > max_weight:
                continue
            new = legs + (b,)
            arms = tuple(x + p for x in new)
            out.append(from_frobenius(FrobeniusForm(arms, new)))
            extend(new, w)

    extend((), 0)
    out.sort(key=lambda la: (weight(la), la))
    return out


# ---------------------------------------------------------------------------
# (skew) Schur polynomials by the branching rule; Littlewood-Richardson
# ---------------------------------------------------------------------------

def _contains(la, mu) -> bool:
    """True iff the partition mu is contained in the partition la."""
    return len(mu) <= len(la) and all(map(operator.le, mu, la))


def _columns_fit(la, mu, nvars: int) -> bool:
    """True iff no column of la/mu (mu inside la) has more than nvars cells."""
    return all(la[i + nvars] <= (mu[i] if i < len(mu) else 0)
               for i in range(len(la) - nvars))


def _few_letters(la, mu, nvars: int) -> dict:
    """s_{la/mu} in nvars <= 1 variables, mu inside la: 1 when la == mu, and
    x_1^|la/mu| when la/mu is a horizontal strip."""
    if not _columns_fit(la, mu, nvars):
        return {}
    return {(weight(la) - weight(mu),)[:nvars]: 1}


def skew_schur_monomials(la, mu, nvars: int) -> dict:
    """Monomial expansion of the skew Schur polynomial in nvars variables.

    Returns {exponent tuple: multiplicity}. Empty dict when the skew shape is
    not fillable (e.g. some column is taller than nvars) or mu is not contained
    in la.  la, mu and nvars are validated here, once; the branching
    recursion below works on normalised partitions only.
    """
    la = check_partition(la)
    mu = check_partition(mu)
    if nvars < 0:
        raise ValueError(f"negative variable count {nvars!r}")
    return {e: c for vec, c in _skew_schur(la, mu, nvars).items()
            for e in _orbit(vec)}


@lru_cache(maxsize=None)
def _orbit(vec) -> tuple:
    """The distinct permutations of the weakly decreasing tuple vec."""
    if not vec:
        return ((),)
    out = []
    for i, v in enumerate(vec):
        if i and v == vec[i - 1]:
            continue
        out.extend((v,) + rest for rest in _orbit(vec[:i] + vec[i + 1:]))
    return tuple(out)


@lru_cache(maxsize=None)
def _skew_schur(la, mu, nvars: int) -> dict:
    """The coefficients of s_{la/mu}(x_1..x_nvars) at weakly decreasing
    exponent vectors (skew Kostka numbers), on normalised partitions.

    s_{la/mu} is symmetric, so these fix every other coefficient (Macdonald,
    Symmetric Functions and Hall Polynomials, I.5); _orbit spreads them.
    Branching rule: the entries equal to the largest letter k form a
    horizontal strip la/nu, so s_{la/mu}(x_1..x_k) is the sum over nu of
    s_{nu/mu}(x_1..x_{k-1}) x_k^e, e = |la/nu|.  e is the last and smallest
    entry of a decreasing vector, so only the vectors of s_{nu/mu} ending
    in an entry >= e are read, and nu with |nu/mu| < (k-1) e is skipped.
    The recursion goes through this cache, so intermediate shapes are
    shared; its one-letter step is written out, not cached.
    """
    if not _contains(la, mu):
        return {}
    if nvars <= 1:
        return _few_letters(la, mu, nvars)
    top = weight(la)
    low = weight(mu)
    k = nvars - 1
    # row i of nu lies between max(mu_i, la_(i+1)) and la_i, and no column
    # of nu/mu is longer than k (nu_i <= mu_(i-k)), so every nu contributes;
    # a column of la/mu longer than nvars leaves some row no choice
    inner = mu + (0,) * (len(la) - len(mu))
    below = la[1:] + (0,)
    choices = [range(max(inner[i], below[i]),
                     (min(x, inner[i - k]) if i >= k else x) + 1)
               for i, x in enumerate(la)]
    out: dict[tuple[int, ...], int] = {}
    for rows in itertools.product(*choices):
        size = sum(rows)
        e = top - size
        if size - low < k * e:
            continue
        if k == 1:  # nu/mu is a horizontal strip: x_1^|nu/mu|
            rest = {(size - low,): 1}
        else:
            rest = _skew_schur(tuple(x for x in rows if x), mu, k)
        for vec, c in rest.items():
            if vec[-1] >= e:
                key = vec + (e,)
                out[key] = out.get(key, 0) + c
    return out


def schur_monomials(la, nvars: int) -> dict:
    return skew_schur_monomials(la, (), nvars)


def lr_coefficient(gamma, nu, sigma) -> int:
    """Littlewood-Richardson coefficient: multiplicity of gamma in nu * sigma.

    Counted as the number of LR tableaux of shape gamma/nu with content sigma.
    """
    gamma = check_partition(gamma)
    nu = check_partition(nu)
    sigma = check_partition(sigma)
    if weight(gamma) != weight(nu) + weight(sigma) or not _contains(gamma, nu):
        return 0
    return _lr_tableaux(gamma, nu, sigma)


def _lr_tableaux(gamma, inner, content) -> int:
    """Number of LR tableaux of shape gamma/inner: semistandard fillings whose
    reverse reading word is a lattice word.

    Normalised partitions, inner inside gamma.  With content a partition of
    |gamma/inner| only the fillings of that content count (their number is
    c^gamma_(inner,content)); with content None every content counts, which
    by c^gamma_(inner,nu) = c^gamma_(nu,inner) is the sum over nu of
    c^gamma_(nu,inner) (Macdonald, Symmetric Functions and Hall Polynomials,
    I.9).  The reading order is rows top to bottom, cells right to left; the
    lattice condition is checked as the word is produced, so the entries of
    row i (from 0) are at most i + 1.
    """
    cells = [(i, j) for i, hi in enumerate(gamma)
             for j in range(hi - 1, (inner[i] if i < len(inner) else 0) - 1,
                            -1)]
    top = len(gamma) if content is None else len(content)
    # remaining[v]: entries v still to place; no limit without a content
    remaining = [0] + (list(content) if content is not None
                       else [len(cells)] * top)
    grid = [[0] * hi for hi in gamma]  # 0 marks a cell of inner
    placed = [0] * (top + 1)

    def count(idx):
        if idx == len(cells):
            return 1
        i, j = cells[idx]
        row = grid[i]
        hi = min(i + 1, top, row[j + 1] if j + 1 < len(row) else top)
        lo = grid[i - 1][j] + 1 if i else 1  # strictly increasing down
        total = 0
        for v in range(lo, hi + 1):  # weakly increasing along the row
            if not remaining[v] or (v > 1 and placed[v - 1] <= placed[v]):
                continue
            row[j] = v
            remaining[v] -= 1
            placed[v] += 1
            total += count(idx + 1)
            placed[v] -= 1
            remaining[v] += 1
        row[j] = 0
        return total

    return count(0)


def _inner_shapes(la, m: int, n: int):
    """The partitions tau inside the normalised partition la with tau_1 <= n
    and no column of la/tau longer than m (tau_i >= la_(i+m)): exactly the
    tau for which s_{la/tau}(x_1..x_m) and s_{tau'}(y_1..y_n) are nonzero."""
    def rec(i, prev):
        if i == len(la):
            yield ()
            return
        low = la[i + m] if i + m < len(la) else 0
        for v in range(min(la[i], prev), low - 1, -1):
            if v == 0:  # then low == 0 here and in every row below
                yield ()
                return
            for rest in rec(i + 1, v):
                yield (v,) + rest

    yield from rec(0, n)


# ---------------------------------------------------------------------------
# characters: {creation content: multiplicity}
# ---------------------------------------------------------------------------

def _schur_sum(m: int, n: int, signed_partitions) -> dict:
    """Coefficients of the sum of sign * s_la(x_1..x_m | y_1..y_n) over the
    (la, sign) pairs, la normalised partitions.

    s_la(x|y) is the sum over the partitions tau inside la of
    s_{la/tau}(x) s_{tau'}(y).  The sum is taken tau first: the x-parts of
    every la are added into one x-series per tau, at decreasing exponents
    only, and each tau then spreads each x-vector over its orbit once, in a
    single product with its y-part.  Cancelled coefficients are dropped.
    """
    by_tau: dict[tuple[int, ...], dict] = {}
    for la, sign in signed_partitions:
        for tau in _inner_shapes(la, m, n):
            acc = by_tau.setdefault(tau, {})
            for vec, c in _skew_schur(la, tau, m).items():
                acc[vec] = acc.get(vec, 0) + sign * c
    out: dict[tuple[int, ...], int] = {}
    for tau, acc in by_tau.items():
        ypart = schur_monomials(conjugate(tau), n).items()
        for vec, cx in acc.items():
            if not cx:
                continue
            for ex in _orbit(vec):
                for ey, cy in ypart:
                    key = ex + ey
                    out[key] = out.get(key, 0) + cx * cy
    return {key: c for key, c in out.items() if c}


def super_schur(la, m: int, n: int) -> dict:
    """Supersymmetric Schur polynomial s_la(x_1..x_m | y_1..y_n).

    Identically zero (an empty dict) exactly when la violates the (m|n)-hook
    condition.
    """
    return _schur_sum(m, n, [(check_partition(la), 1)])


def _times_product_form(coeffs: dict, m: int, n: int, cap: int) -> dict:
    """The series coeffs times
    prod(1+x_i y_j) / [prod(1-x_i) prod(1-x_i x_k) prod(1-y_j) prod(1-y_j y_l)],
    truncated at total degree cap, without zero coefficients.

    Each exponent vector is packed once into an int, sum(e_i * (cap+1)**i)
    (Monagan and Pearce's packed exponent vectors), and filed under its
    total degree; every factor is then applied to the ints in one pass over
    the degrees.  A kept term has degree <= cap, so no slot carries, and the
    degree bound is the range of the pass.  A negative exponent or a degree
    above cap would pack ambiguously and is a ValueError.
    """
    base = cap + 1
    units = [base ** i for i in range(m + n)]
    by_degree: list[dict[int, int]] = [{} for _ in range(base)]
    for e, c in coeffs.items():
        if min(e, default=0) < 0:
            raise ValueError(f"exponent {e} has a negative entry")
        if sum(e) > cap:
            raise ValueError(f"exponent {e} has degree outside 0..{cap}")
        by_degree[sum(e)][sum(map(operator.mul, e, units))] = c
    xs, ys = units[:m], units[m:]
    # 1 + x_i y_j: from the top degree down, so no term is raised twice
    for t in [a + b for a in xs for b in ys]:
        for d in range(cap - 2, -1, -1):
            _add_shifted(by_degree[d + 2], by_degree[d], t)
    # 1 / (1 - t): from degree 0 up, so the terms raised into a degree are
    # raised again from it
    for dt, ts in ((1, xs), (2, _pair_sums(xs)), (1, ys), (2, _pair_sums(ys))):
        for t in ts:
            for d in range(base - dt):
                _add_shifted(by_degree[d + dt], by_degree[d], t)
    return {tuple([key // q % base for q in units]): c
            for terms in by_degree for key, c in terms.items() if c}


def _add_shifted(out: dict, terms: dict, t: int) -> None:
    """Add the packed terms, each key raised by t, into out."""
    for key, c in terms.items():
        key += t
        out[key] = out.get(key, 0) + c


def _pair_sums(units: list) -> list:
    return [a + b for a, b in itertools.combinations(units, 2)]


def weight_series_product(m: int, n: int, cap: int) -> dict:
    """prod(1+x_i y_j) / [prod(1-x_i) prod(1-x_i x_k) prod(1-y_j) prod(1-y_j y_l)],
    truncated at total degree cap."""
    return _times_product_form({(0,) * (m + n): 1}, m, n, cap)


def verma_character(m: int, n: int, cap: int) -> dict:
    """Character of the induced module up to degree cap, as the sum of
    supersymmetric Schur polynomials over all hook partitions of each
    degree.  A partition's width is at most its degree, so this is the
    irreducible character at p = cap.  weight_series_product gives the same
    series from the closed product form.
    """
    return irreducible_character(m, n, cap, cap)


@lru_cache(maxsize=None)
def _narrow_character(m: int, n: int, width: int, cap: int) -> dict:
    """The sum of s_la(x|y) over the hook partitions of width <= width and
    degree <= cap.  Only copies are handed out."""
    narrow = ((la, 1) for d in range(cap + 1)
              for la in hook_partitions(d, m, n, max_width=width))
    return _schur_sum(m, n, narrow)


def irreducible_character(m: int, n: int, p: int, cap: int) -> dict:
    """Character of the irreducible lowest-weight module up to degree cap:
    hook partitions of width <= p.  A partition's width is at most its
    degree, so every p >= cap shares the Schur sum of p = cap."""
    return dict(_narrow_character(m, n, min(p, cap), cap))


def _alternating_sign(sigma, p: int) -> int:
    return -1 if sign_exponent(sigma, p) % 2 else 1


def alternating_cut_sum(m: int, n: int, p: int, cap: int) -> dict:
    """Signed sum of s_sigma(x|y) over the hook partitions with arm-leg
    offset p and degree <= cap."""
    signed = ((sigma, _alternating_sign(sigma, p))
              for sigma in offset_family_partitions(p, cap)
              if in_hook(sigma, m, n))
    return _schur_sum(m, n, signed)


def character_formula_report(m: int, n: int, p: int, cap: int) -> dict:
    """Check the closed character formula and its underlying Schur-coefficient identity.

    Two independent checks:
      * the truncated series identity: irreducible character == Verma product
        form times the alternating cut sum;
      * the universal coefficient identity behind it, verified degree by degree
        through Littlewood-Richardson coefficients (no series arithmetic).

    The two series it builds are returned as "irreducible" and "verma" (the
    product form).
    """
    irreducible = irreducible_character(m, n, p, cap)
    verma = weight_series_product(m, n, cap)
    # truncation at cap is a ring map: this is the truncated verma * alt
    series_equal = irreducible == _times_product_form(
        alternating_cut_sum(m, n, p, cap), m, n, cap)

    # the sum over nu of c^gamma_(nu,sigma) is the number of LR tableaux of
    # shape gamma/sigma of any content: one count per (gamma, sigma)
    lr_failures = []
    sigmas = [(sigma, _alternating_sign(sigma, p))
              for sigma in offset_family_partitions(p, cap)]
    for d in range(cap + 1):
        for gamma in partitions_of(d):
            total = sum(sign * _lr_tableaux(gamma, sigma, None)
                        for sigma, sign in sigmas if _contains(gamma, sigma))
            expected = 1 if (not gamma or gamma[0] <= p) else 0
            if total != expected:
                lr_failures.append({"gamma": list(gamma), "got": total,
                                    "expected": expected})
    return {
        "m": m, "n": n, "p": p, "degree": cap,
        "irreducible": irreducible, "verma": verma,
        "series_equal": series_equal,
        "lr_identity_failures": lr_failures,
        "ok": series_equal and not lr_failures,
    }
