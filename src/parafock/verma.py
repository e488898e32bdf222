"""Induced-module oracle: PBW basis, straightening, contravariant Gram forms.

The module of order p is realized on monomials in the creation generators
c_1..c_r (r = m+n) and their pairwise brackets.  Every monomial is c_l^+ times
a lower monomial (a leading bracket factor gives two such terms), so the
annihilation action, the bracket action [c_a^-, c_b^+] and the Gram entries
follow by recursion on the monomial, with the triple relations as commutation
rules and the Shapovalov identity <c_l^+ R, Y> = <R, c_l^- Y> for the form
(Kac-Kazhdan, Adv. Math. 34, 1979).  All three are memoized per monomial as
polynomials in p, so a single cache serves every order.  The upper triangle
of each content's Gram block is memoized too, as the PPolys pair_poly
returned, so a further order only evaluates it at p and eliminates.

Per-weight Gram matrices of the contravariant form (c_a^+ and c_a^- are
adjoint, products reverse) have exact rank and positive-semidefiniteness
certificate; the ranks are the weight multiplicities of the irreducible
quotient, the module modulo the radical of the form.

Permuting the parafermion indices among themselves, or the paraboson indices
among themselves, fixes the triple relations, the vacuum and the form, so a
block's size, rank and PSD flag are constant on each S_m x S_n orbit of
contents.  gram_records_up_to, whose records gram and matelems read and
diagonal_check and radical_cut_check take, builds only each orbit
representative's block; the other contents' records follow from the
symmetry.  There the Cartan identity
{c_b^-, c_b^+} = p + 2 content_b is checked for every boson index b, which
covers the last index on every content of the orbit.  gram_blocks_up_to
builds every block; the tests compare the orbit walk against it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import NamedTuple

from .rational_linalg import symmetric_rank_psd
from . import patterns as gz
from .symfunc import hook_partitions


# ---------------------------------------------------------------------------
# polynomials in the order parameter
# ---------------------------------------------------------------------------

class PPoly:
    """Univariate polynomial in the module order p, with integer coefficients.

    Gram entries and action images lie in Z[p]: the commutation rules only
    multiply by +-1, +-2 and p.  A value at an order is exact and of the
    order's type: an int at an integer p, a Fraction at a Fraction p.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def const(cls, c):
        return cls((c,))

    @classmethod
    def variable(cls):
        return cls((0, 1))

    def is_zero(self):
        return not self.coeffs

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return PPoly(out)

    @classmethod
    def _normal(cls, coeffs: tuple):
        """Wrap a coefficient tuple already in normal form (no trailing 0)."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

    def __neg__(self):
        return PPoly._normal(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product with a PPoly or an int; scaling by 1 returns self, and by
        -1 the negation."""
        if isinstance(other, PPoly):
            out: list = []
            _add_product(out, self.coeffs, other.coeffs, 1)
            return PPoly._normal(tuple(out))
        if other == 1:
            return self
        if other == -1:
            return -self
        if not other:
            return _ZERO
        return PPoly._normal(tuple(other * c for c in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, p):
        """Exact value at p by Horner's rule, in p's type (int or Fraction)."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * p + c
        return acc

    def __repr__(self):
        if self.is_zero():
            return "0"
        terms = []
        for d in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            if d == 0:
                terms.append(f"{c}")
            elif d == 1:
                terms.append(f"{c}*p" if c != 1 else "p")
            else:
                terms.append(f"{c}*p**{d}" if c != 1 else f"p**{d}")
        return " + ".join(terms).replace("+ -", "- ")


_ZERO = PPoly()
_ONE = PPoly.const(1)
_P = PPoly.variable()


def _add_product(out: list, a: tuple, b: tuple, scale: int) -> None:
    """out += scale * a * b on coefficient lists, out extended as needed.
    Over the integers a product of nonzero polynomials keeps its leading
    coefficient nonzero, so a sum of one product stays in normal form."""
    if not a or not b:
        return
    short = len(a) + len(b) - 1 - len(out)
    if short > 0:
        out.extend([0] * short)
    for i, x in enumerate(a):
        if x:
            x *= scale
            for j, y in enumerate(b):
                out[i + j] += x * y


# ---------------------------------------------------------------------------
# PBW monomials
# ---------------------------------------------------------------------------

@cache
def pair_slots(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic list of bracket factors (i, j), i < j, 1-based."""
    r = m + n
    return tuple((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1))


def is_mixed_pair(pr, m: int) -> bool:
    return pr[0] <= m < pr[1]


class PBWMonomial(NamedTuple):
    """Exponents of the ordered product: singles first, bracket factors after.

    Mixed bracket factors square to zero, so their exponents stay in {0, 1}.
    The tuple order (singles, then pairs) is the canonical basis order.
    """

    singles: tuple[int, ...]
    pairs: tuple[int, ...]

    def content(self, m: int, n: int) -> tuple[int, ...]:
        out = list(self.singles)
        for (i, j), e in zip(pair_slots(m, n), self.pairs):
            if e:
                out[i - 1] += e
                out[j - 1] += e
        return tuple(out)


def pbw_basis(m: int, n: int, level: int) -> list[PBWMonomial]:
    """All monomials of the given degree, in canonical order."""
    r = m + n
    slots = pair_slots(m, n)
    out = []

    def pair_vectors(idx, left):
        if idx == len(slots):
            yield ()
            return
        cap = 1 if is_mixed_pair(slots[idx], m) else left
        for e in range(0, min(cap, left) + 1):
            for rest in pair_vectors(idx + 1, left - e):
                yield (e,) + rest

    def single_vectors(k, left):
        if k == r - 1:
            yield (left,)
            return
        for e in range(left + 1):
            for rest in single_vectors(k + 1, left - e):
                yield (e,) + rest

    for pv in pair_vectors(0, level // 2):
        used = 2 * sum(pv)
        if used > level:
            continue
        if r == 0:
            if level == 0:
                out.append(PBWMonomial((), pv))
            continue
        for sv in single_vectors(0, level - used):
            out.append(PBWMonomial(sv, pv))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# the module-action engine
# ---------------------------------------------------------------------------

_LABEL_SCALARS = {"c": 1, "h": Fraction(1, 2), "bb": 1}


def _accumulate(out: dict, vector: dict, factor) -> None:
    """out += factor * vector, on {monomial: PPoly} dicts; factor is an int
    or a PPoly (PPoly.__mul__ builds no product for a factor of +-1)."""
    for mono, poly in vector.items():
        val = poly * factor
        prev = out.get(mono)
        out[mono] = val if prev is None else prev + val


def _nonzero(vector: dict) -> dict:
    return {k: v for k, v in vector.items() if not v.is_zero()}


class VermaEngine:
    """The p-independent caches of one algebra (m, n), shared by every order.

    Three per-monomial primitives carry the module: the lowering action
    low(a, X) = c_a^- X, the bracket action B(a, b) X with
    B(a, b) = [c_a^-, c_b^+], and the Gram entry <X, Y>, all integer
    polynomials in p.  Eight methods are memoized: those three, the
    p-free creation straightening c_a^+ X (integer coefficients), the lead
    expansion of a monomial, the PBW basis of a level grouped by content,
    the upper triangle of a content's Gram block (gram_polys), and the
    acts_by_weight verdict of a (generator pair, monomial) (the action
    image that act reads is not).  __init__ wraps each bound method
    in functools.cache, so the caches belong to the engine and each reports
    cache_info().  Callers only read the dicts the caches hand out.  They
    are unbounded and never evicted: they grow with the levels and
    monomials asked for, and get_engine keeps one engine per (m, n) for the
    life of the process.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.r = m + n
        self.slots = pair_slots(m, n)
        self.slot_index = {pr: i for i, pr in enumerate(self.slots)}
        for name in ("level_basis", "_insert_letter", "_lead", "low",
                     "bracket", "_pair", "gram_polys", "acts_by_weight"):
            setattr(self, name, cache(getattr(self, name)))

    def parity(self, a: int) -> int:
        return 0 if a <= self.m else 1

    def level_basis(self, level: int) -> dict:
        """Content -> tuple of the PBW monomials of that content, in canonical
        order."""
        grouped: dict[tuple, list] = {}
        for mono in pbw_basis(self.m, self.n, level):
            grouped.setdefault(mono.content(self.m, self.n), []).append(mono)
        return {c: tuple(monos) for c, monos in grouped.items()}

    # -- creation: prepend a letter and straighten ------------------------

    def _insert_letter(self, a: int, mono: PBWMonomial) -> dict:
        """c_a^+ mono straightened into canonical monomials, as
        {monomial: int}: the letter moves past each smaller leading single,
        leaving a bracket factor behind."""
        singles = mono.singles
        s1 = next((i + 1 for i, e in enumerate(singles) if e), None)
        if s1 is None or a <= s1:
            new = list(singles)
            new[a - 1] += 1
            return {PBWMonomial(tuple(new), mono.pairs): 1}
        tail_singles = list(singles)
        tail_singles[s1 - 1] -= 1
        tail = PBWMonomial(tuple(tail_singles), mono.pairs)
        sign = -1 if (self.parity(a) * self.parity(s1)) % 2 else 1
        out: dict[PBWMonomial, int] = {}
        for mono2, c in self._insert_letter(a, tail).items():
            new = list(mono2.singles)
            new[s1 - 1] += 1
            key = PBWMonomial(tuple(new), mono2.pairs)
            out[key] = out.get(key, 0) + sign * c
        for mono2, c in self._insert_pair((s1, a), tail).items():
            out[mono2] = out.get(mono2, 0) - sign * c
        return {k: v for k, v in out.items() if v}

    def _insert_pair(self, pr: tuple[int, int], mono: PBWMonomial) -> dict:
        """Prepend a bracket factor, sign-commuting it to its canonical slot."""
        idx = self.slot_index[pr]
        mixed = is_mixed_pair(pr, self.m)
        if mixed and mono.pairs[idx]:
            return {}  # odd factor squares to zero
        sign = 1
        if mixed:
            crossed = sum(
                e for s, e in enumerate(mono.singles) if self.parity(s + 1)
            )
            crossed += sum(
                e for q, e in enumerate(mono.pairs)
                if q < idx and is_mixed_pair(self.slots[q], self.m)
            )
            if crossed % 2:
                sign = -1
        new = list(mono.pairs)
        new[idx] += 1
        return {PBWMonomial(mono.singles, tuple(new)): sign}

    def _add_raised(self, out: dict, a: int, vector: dict, factor: int) -> None:
        """out += factor * c_a^+ vector, on {monomial: PPoly} dicts; each
        polynomial is scaled once, by the straightening coefficient times
        factor."""
        for mono, poly in vector.items():
            for mono2, c in self._insert_letter(a, mono).items():
                val = poly * (c * factor)
                prev = out.get(mono2)
                out[mono2] = val if prev is None else prev + val

    # -- lead expansion and the two lowering primitives ---------------------

    def _lead(self, mono: PBWMonomial) -> tuple:
        """((coefficient, letter l, rest), ...) with mono the sum of
        coefficient * c_l^+ rest, each rest a monomial one level lower; empty
        for the vacuum.  A leading bracket factor [c_i^+, c_j^+] expands into
        c_i^+ c_j^+ - (-1)^(p(i)p(j)) c_j^+ c_i^+."""
        s = next((k for k, e in enumerate(mono.singles) if e), None)
        if s is not None:
            singles = list(mono.singles)
            singles[s] -= 1
            return ((1, s + 1, PBWMonomial(tuple(singles), mono.pairs)),)
        q = next((k for k, e in enumerate(mono.pairs) if e), None)
        if q is None:
            return ()
        i, j = self.slots[q]
        pairs = list(mono.pairs)
        pairs[q] -= 1
        pairs = tuple(pairs)

        def one(letter):
            return PBWMonomial(
                tuple(int(k == letter) for k in range(1, self.r + 1)), pairs)

        sigma = -1 if self.parity(i) * self.parity(j) else 1
        return ((1, i, one(j)), (-sigma, j, one(i)))

    def low(self, a: int, mono: PBWMonomial) -> dict:
        """c_a^- mono as {monomial: PPoly}:
        c_a^- c_l^+ R = (-1)^(p(a)p(l)) c_l^+ c_a^- R + B(a, l) R."""
        out: dict[PBWMonomial, PPoly] = {}
        odd = self.parity(a)
        for coeff, l, rest in self._lead(mono):
            sign = -coeff if odd and self.parity(l) else coeff
            self._add_raised(out, l, self.low(a, rest), sign)
            _accumulate(out, self.bracket(a, l, rest), coeff)
        return _nonzero(out)

    def bracket(self, a: int, b: int, mono: PBWMonomial) -> dict:
        """B(a, b) mono as {monomial: PPoly}, B(a, b) = [c_a^-, c_b^+]:
        p on the vacuum when a == b, else 0, and
        B(a, b) c_l^+ R = (-1)^((p(a)+p(b))p(l)) c_l^+ B(a, b) R
                          - 2 (-1)^(p(b)p(l)) delta_(a,l) c_b^+ R."""
        lead = self._lead(mono)
        out: dict[PBWMonomial, PPoly] = {}
        if not lead and a == b:
            out[mono] = _P
        odd_ab = (self.parity(a) + self.parity(b)) % 2
        for coeff, l, rest in lead:
            odd_l = self.parity(l)
            sign = -coeff if odd_ab and odd_l else coeff
            self._add_raised(out, l, self.bracket(a, b, rest), sign)
            if a == l:
                extra = 2 * coeff if self.parity(b) and odd_l else -2 * coeff
                self._add_raised(out, b, {rest: _ONE}, extra)
        return _nonzero(out)

    # -- contravariant pairing ----------------------------------------------

    def pair_poly(self, m1: PBWMonomial, m2: PBWMonomial) -> PPoly:
        """Gram entry <m1, m2> as a polynomial in p; 0 across contents."""
        if m1.content(self.m, self.n) != m2.content(self.m, self.n):
            return _ZERO
        return self._pair(m1, m2)

    def _pair(self, x: PBWMonomial, y: PBWMonomial) -> PPoly:
        """Shapovalov recursion <c_l^+ R, Y> = <R, c_l^- Y>, <vac, vac> = 1;
        x and y have the same content."""
        lead = self._lead(x)
        if not lead:
            return _ONE
        total: list = []
        for coeff, l, rest in lead:
            for z, poly in self.low(l, y).items():
                _add_product(total, poly.coeffs, self._pair(rest, z).coeffs,
                             coeff)
        return PPoly(total)

    def gram_polys(self, content: tuple) -> tuple:
        """(basis, upper): the content's monomials in canonical order, and
        per row i the entries pair_poly(basis[i], basis[j]) for j >= i."""
        basis = self.level_basis(sum(content)).get(content, ())
        return basis, tuple(tuple(self.pair_poly(x, y) for y in basis[i:])
                            for i, x in enumerate(basis))

    # -- generator action -----------------------------------------------------

    def _apply(self, sign: str, a: int, vector: dict) -> dict:
        """c_a^+ (sign '+') or c_a^- (sign '-') on a {monomial: PPoly} vector."""
        out: dict[PBWMonomial, PPoly] = {}
        if sign == "+":
            self._add_raised(out, a, vector, 1)
        else:
            for mono, poly in vector.items():
                _accumulate(out, self.low(a, mono), poly)
        return out

    def _action_image(self, label, mono: PBWMonomial) -> dict:
        """{monomial: PPoly}: the label applied to one monomial, before the
        label's scalar.  ('h', k) is
        ('bb', k, k, '+', '-') and ('bb', a, b, s, t) is
        c_a^s c_b^t - (-1)^(p(a)p(b)) c_b^t c_a^s."""
        unit = {mono: _ONE}
        if label[0] == "c":
            _, a, s = label
            out = self._apply(s, a, unit)
        else:
            _, a, b, s, t = ("bb", label[1], label[1], "+", "-") \
                if label[0] == "h" else label
            out = self._apply(s, a, self._apply(t, b, unit))
            sigma = -1 if self.parity(a) * self.parity(b) else 1
            _accumulate(out, self._apply(t, b, self._apply(s, a, unit)), -sigma)
        return _nonzero(out)

    def acts_by_weight(self, b: int, mono: PBWMonomial) -> bool:
        """Whether the generator pair b maps mono to (p + 2 content_b) mono."""
        eigen = PPoly((2 * mono.content(self.m, self.n)[b - 1], 1))
        return {mono: eigen} == self._action_image(("bb", b, b, "-", "+"), mono)

    def act(self, label, vector: dict, p) -> dict:
        """Left action of a basis element on a module vector, order p.

        vector maps PBWMonomial -> Fraction; labels are ('c', j, sign),
        ('h', k) or ('bb', j, k, sign, sign) as in the algebra basis.
        """
        scalar = _LABEL_SCALARS.get(label[0])
        if scalar is None:
            raise ValueError(f"unknown algebra element {label!r}")
        p = Fraction(p)
        out: dict[PBWMonomial, Fraction] = {}
        for mono, coeff in vector.items():
            coeff = scalar * Fraction(coeff)
            for mono2, poly in self._action_image(label, mono).items():
                out[mono2] = out.get(mono2, 0) + coeff * poly.evaluate(p)
        return {k: v for k, v in out.items() if v}


@cache
def get_engine(m: int, n: int) -> VermaEngine:
    return VermaEngine(m, n)


# ---------------------------------------------------------------------------
# Gram blocks
# ---------------------------------------------------------------------------

@dataclass
class GramBlock:
    """One weight space's Gram block at order p, with its elimination.

    matrix holds the exact Gram entries in the type of the order p: ints at
    an integer p, so a block at a positive order holds no Fraction.
    pivots are the LDL pivots (Fractions); pivot_indices are the basis
    positions symmetric_rank_psd pivoted on, in pivot order, or None when
    the elimination stalled on an indefinite block.
    """

    m: int
    n: int
    p: int | Fraction
    content: tuple[int, ...]
    weight: tuple[int, ...]            # doubled weight
    basis: list[PBWMonomial]
    matrix: list[list[int | Fraction]]
    rank: int
    psd: bool
    pivots: list[Fraction]
    pivot_indices: list[int] | None

    @property
    def size(self) -> int:
        return len(self.basis)


def level_contents(m: int, n: int, level: int) -> list[tuple[int, ...]]:
    return sorted(get_engine(m, n).level_basis(level))


def basis_for_content(m: int, n: int, content) -> list[PBWMonomial]:
    groups = get_engine(m, n).level_basis(sum(content))
    return list(groups.get(tuple(content), ()))


def gram_block_for_content(m: int, n: int, p: int, content) -> GramBlock:
    """Gram block of the weight space of one creation content: the
    engine's memoized entry polynomials (gram_polys) evaluated at p."""
    basis, upper = get_engine(m, n).gram_polys(tuple(content))
    mat = [[0] * len(basis) for _ in basis]
    for i, row in enumerate(upper):
        for j, poly in enumerate(row, i):
            val = poly.evaluate(p)
            mat[i][j] = val
            mat[j][i] = val
    ints, den = mat, 1
    if isinstance(p, Fraction):
        # eliminate den * G over the integers; that scales every pivot by den
        den = math.lcm(*(x.denominator for row in mat for x in row))
        ints = [[x.numerator * (den // x.denominator) for x in row]
                for row in mat]
    rank, psd, pivots, pivot_indices = symmetric_rank_psd(ints)
    if den != 1:
        pivots = [d / den for d in pivots]
    return GramBlock(
        m=m, n=n, p=p, content=tuple(content),
        weight=gz.doubled_weight(content, m, n, p),
        basis=list(basis), matrix=mat, rank=rank, psd=psd, pivots=pivots,
        pivot_indices=pivot_indices,
    )


def gram_blocks_up_to(m: int, n: int, p: int, level_max: int):
    """The blocks of levels <= level_max in canonical order (level, then
    content), each built when the walk reaches it."""
    for level in range(level_max + 1):
        for content in level_contents(m, n, level):
            yield gram_block_for_content(m, n, p, content)


class GramRecord(NamedTuple):
    """What gram, matelems and their checks read of one weight space at
    order p.

    pivot_count is the number of pivots, None when the elimination
    stalled; cartan is whether the Cartan identity of every checked
    generator pair holds on each pivot monomial.
    """

    content: tuple[int, ...]
    weight: tuple[int, ...]            # doubled weight
    size: int
    rank: int
    psd: bool
    pivot_count: int | None
    cartan: bool


def gram_record(block: GramBlock, indices) -> GramRecord:
    """The block's record, with the Cartan identity {c_b^-, c_b^+} =
    p + 2 content_b checked for each generator index b in indices
    (engine.acts_by_weight) on every pivot monomial, the basis monomial at
    one of the block's pivot indices.  The elimination's LDL transform rows
    lie in the span of the pivot monomials."""
    pivot_indices = block.pivot_indices
    engine = get_engine(block.m, block.n)
    return GramRecord(
        content=block.content, weight=block.weight, size=block.size,
        rank=block.rank, psd=block.psd,
        pivot_count=None if pivot_indices is None else len(pivot_indices),
        cartan=pivot_indices is not None and all(
            engine.acts_by_weight(b, block.basis[i])
            for b in indices for i in pivot_indices))


def gram_records_up_to(m: int, n: int, p: int, level_max: int):
    """The records of levels <= level_max in canonical order (level, then
    content), one Gram block built per S_m x S_n orbit of contents.

    The block is the orbit representative's, the content with each parity
    class sorted descending, built when the walk first reaches the orbit.
    Its record, the Cartan identity checked for every boson index, stands
    for each content of the orbit under that content's doubled weight.
    """
    bosons = tuple(range(m + 1, m + n + 1))
    for level in range(level_max + 1):
        by_orbit: dict[tuple, GramRecord] = {}
        for content in level_contents(m, n, level):
            rep = (tuple(sorted(content[:m], reverse=True))
                   + tuple(sorted(content[m:], reverse=True)))
            rec = by_orbit.get(rep)
            if rec is None:
                rec = by_orbit[rep] = gram_record(
                    gram_block_for_content(m, n, p, rep), bosons)
            yield rec._replace(content=content,
                               weight=gz.doubled_weight(content, m, n, p))


def _records_by_level(records: list[GramRecord]
                      ) -> dict[int, list[GramRecord]]:
    """Level -> the records of that level, in their given order."""
    by_level: dict[int, list[GramRecord]] = {}
    for rec in records:
        by_level.setdefault(sum(rec.content), []).append(rec)
    return by_level


# ---------------------------------------------------------------------------
# oracle reports
# ---------------------------------------------------------------------------

def diagonal_values(rec: GramRecord) -> list[Fraction]:
    """Sorted values of the last generator pair's anticommutator on the
    G-orthogonal basis of LDL transform rows of the record's block, at the
    record's order.

    On a transform row u_k the value is (u_k^T G B u_k) / (u_k^T G u_k), B
    the pair.  Every u_k lies in the span of the pivot monomials, so if B
    acts by the weight's last entry w on each pivot monomial (the record's
    Cartan verdict), B u_k = w u_k and every value is w.  Raises
    ArithmeticError, naming the weight, if that Cartan identity fails or
    the elimination stalled.
    """
    if rec.pivot_count is None:
        raise ArithmeticError(
            f"the elimination stalled on the indefinite weight space "
            f"{list(rec.weight)}")
    if not rec.cartan:
        raise ArithmeticError(
            f"the Cartan identity fails on the weight space {list(rec.weight)}")
    return [Fraction(rec.weight[-1])] * rec.pivot_count


def diagonal_check(m: int, n: int, p: int, level_max: int,
                   records: list[GramRecord]) -> dict:
    """Diagonal action of the last generator pair versus the pattern labels.

    On a G-orthogonal basis of every non-radical block, the last pair's
    anticommutator (read off the Cartan identity, as in diagonal_values)
    must take the patterns' p + 2*(top row sum - second row sum) as a
    multiset per weight; a failed identity is an "error" failure.
    `records` are those of gram_records_up_to(m, n, p, level_max), so each
    content has its orbit representative's verdict, checked there for every
    boson index.
    """
    if n < 1:
        raise ValueError("the last generator pair is bosonic only when n >= 1")
    by_level = _records_by_level(records)
    failures = []
    checked = 0
    for level in range(level_max + 1):
        counts = gz.pattern_counts(m, n, level, max_width=p)
        for rec in by_level.get(level, ()):
            try:
                values = diagonal_values(rec)
            except ArithmeticError as exc:
                failures.append({"weight": list(rec.weight), "error": str(exc)})
                continue
            # a pattern's p + 2*(top row sum - second row sum) is the last
            # entry of its doubled weight
            expected = [Fraction(rec.weight[-1])] * counts[rec.content]
            checked += len(values)
            if values != expected:
                failures.append({
                    "weight": list(rec.weight),
                    "got": [str(v) for v in values],
                    "expected": [str(v) for v in expected],
                })
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "checked": checked, "failures": failures, "ok": not failures}


def radical_cut_check(m: int, n: int, p: int, level_max: int,
                      records: list[GramRecord]) -> dict:
    """Ranks match the width-capped pattern counts; the cap is sharp.

    Verifies per weight that the Gram rank equals the number of patterns with
    top-row width <= p, and that admitting width p+1 strictly overcounts at
    some weight of some level (whenever such patterns exist in range).
    `records` are those of gram_records_up_to(m, n, p, level_max), so each
    content has its orbit representative's rank.
    """
    def weight(content):
        return list(gz.doubled_weight(content, m, n, p))

    by_level = _records_by_level(records)
    failures = []
    witness = None
    for level in range(level_max + 1):
        capped = gz.pattern_counts(m, n, level, max_width=p)
        wide = gz.pattern_counts(m, n, level, max_width=p + 1)
        ranks = {rec.content: rec.rank for rec in by_level.get(level, ())}
        for c, rank in ranks.items():
            if rank != capped[c]:
                failures.append({"level": level, "weight": weight(c),
                                 "rank": rank, "patterns": capped[c]})
        for c, cnt in capped.items():
            if c not in ranks:
                failures.append({"level": level, "weight": weight(c),
                                 "rank": 0, "patterns": cnt})
        if witness is None:
            for c in sorted(wide):
                if wide[c] > capped[c]:
                    witness = {"level": level, "weight": weight(c),
                               "wide_count": wide[c],
                               "capped_count": capped[c]}
                    break
    cut_expected = any(
        la and la[0] == p + 1
        for level in range(level_max + 1)
        for la in hook_partitions(level, m, n)
    )
    ok = not failures and (witness is not None) == cut_expected
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "failures": failures, "cut_witness": witness,
            "cut_expected": cut_expected, "ok": ok}
