"""Induced-module oracle: PBW basis, straightening, contravariant Gram forms.

The module of order p is realized on monomials in the creation generators
c_1..c_r (r = m+n) and their pairwise brackets.  Every monomial is c_l^+ times
a lower monomial (a leading bracket factor gives two such terms), so the
annihilation action, the bracket action [c_a^-, c_b^+] and the Gram entries
follow by recursion on the monomial, with the triple relations as commutation
rules and the Shapovalov identity <c_l^+ R, Y> = <R, c_l^- Y> for the form
(Kac-Kazhdan, Adv. Math. 34, 1979).  All three are memoized per monomial as
polynomials in p, so a single cache serves every order; the recursion keys a
monomial by one packed int, holds a lowering or bracket image, of degree <= 1
in p, as pairs (c0, c1) for c0 + c1 p, and a Gram entry as its coefficient
tuple.  The upper triangle of each content's Gram block is memoized too, as
the PPolys pair_poly returned, and so are each level's orbit table and the
Cartan verdict of each pivot set, so a further order only evaluates each
triangle at p and eliminates.  The straightening c_a^+ X and these lowering
and bracket images are the whole module action.

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
covers the last index on every content of the orbit; its left side is
computed from the lowering pairs, not read off the closed form.
gram_blocks_up_to builds every block; the tests compare the orbit walk
against it.
"""

from __future__ import annotations

from functools import cache
from operator import add, index
from typing import NamedTuple

from .rational_linalg import symmetric_rank_psd
from . import patterns as gz
from .symfunc import hook_partitions


# ---------------------------------------------------------------------------
# polynomials in the order parameter
# ---------------------------------------------------------------------------

class PPoly:
    """Univariate polynomial in the module order p, with integer coefficients.

    Gram entries lie in Z[p]: the commutation rules only multiply by +-1,
    +-2 and p.  A value at an order is exact and of the order's type: an int
    at an integer p, a Fraction at a Fraction p.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def _normal(cls, coeffs: tuple):
        """Wrap a coefficient tuple already in normal form (no trailing 0)."""
        poly = object.__new__(cls)
        poly.coeffs = coeffs
        return poly

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
        return f"PPoly({self.coeffs!r})"


_ZERO = PPoly()


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
    The tuple order (singles, then pairs) is the canonical basis order, and
    the int the engine packs a monomial into sorts the same way.
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

    def pair_vectors(start, left):
        # the exponents of slots start.. with at most left factors in all;
        # each call places one nonzero exponent, so the depth is at most
        # left + 1 however many slots there are
        yield (0,) * (len(slots) - start)
        for idx in range(start, len(slots)):
            cap = 1 if is_mixed_pair(slots[idx], m) else left
            for e in range(1, min(cap, left) + 1):
                for rest in pair_vectors(idx + 1, left - e):
                    yield (0,) * (idx - start) + (e,) + rest

    def single_vectors(k, left):
        if k == r - 1:
            yield (left,)
            return
        for e in range(left + 1):
            for rest in single_vectors(k + 1, left - e):
                yield (e,) + rest

    for pv in pair_vectors(0, level // 2):
        if r == 0:
            if level == 0:
                out.append(PBWMonomial((), pv))
            continue
        for sv in single_vectors(0, level - 2 * sum(pv)):
            out.append(PBWMonomial(sv, pv))
    out.sort()
    return out


# ---------------------------------------------------------------------------
# the module-action engine
# ---------------------------------------------------------------------------

SLOT_BITS = 8              # bits per exponent in a packed monomial key
# (a byte, so a key's big-endian bytes are its exponents: _pack)
_SLOT_MASK = (1 << SLOT_BITS) - 1
# An exponent the recursion reaches from X is at most X's content entry
# plus 1 (the Cartan check raises X by one letter); the limit leaves room
# for X raised by two letters, as by a generator c_a^+ c_b^+.
CONTENT_LIMIT = (1 << SLOT_BITS) - 3


_NIL = (0, 0)               # the zero pair c0 + c1 p


def _nonzero(acc: dict) -> dict:
    """{key: (c0, c1)}, the zero pairs dropped."""
    return {key: pair for key, pair in acc.items() if pair != _NIL}


class VermaEngine:
    """The p-independent caches of one algebra (m, n), shared by every order.

    Three per-monomial primitives carry the module: the lowering action
    low(a, X) = c_a^- X, the bracket action B(a, b) X with
    B(a, b) = [c_a^-, c_b^+], and the Gram entry <X, Y>, all integer
    polynomials in p.  Eleven methods are memoized, each in a
    functools.cache of its own that __init__ wraps: those three, the p-free
    straightening c_a^+ X, the lead expansion and the packing (_pack) of a
    monomial, the PBW basis of a level by content and its orbit table
    (orbits), the upper triangle of a content's Gram block (gram_polys),
    the acts_by_weight verdict and its conjunction over a content's pivot
    positions (cartan).  Callers only read what the caches hand out;
    get_engine keeps one engine per (m, n).

    The recursion keys a monomial by one int, SLOT_BITS bits per exponent,
    singles first and the first exponent most significant, so int order is
    the canonical order and a letter is one added unit.  low and bracket
    map keys to nonzero pairs (c0, c1), c0 + c1 p; a Gram entry is a
    coefficient tuple in normal form.  _pack, the only way in, raises
    ValueError for a monomial of the wrong shape, a negative exponent or a
    content entry at CONTENT_LIMIT.  No key leaves the engine: PPoly values
    are built only in pair_poly (so gram_polys), and acts_by_weight
    compares pairs on packed keys.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.r = m + n
        self.slots = pair_slots(m, n)
        self.slot_index = {pr: i for i, pr in enumerate(self.slots)}
        width = self.r + len(self.slots)
        self._shift = tuple(SLOT_BITS * (width - 1 - k) for k in range(width))
        self._unit = tuple(1 << s for s in self._shift)
        self._no_single = 1 << SLOT_BITS * len(self.slots)
        self._last = width - 1
        # the odd components (odd singles, mixed factors); per mixed factor
        # slot q, the low bits of those a factor inserted at q crosses: odd
        # ascends, so each is the running sum of the units before q
        odd =[*range(m, self.r), *(q for q, pr in enumerate(self.slots, self.r)
                                    if is_mixed_pair(pr, m))]
        self._cross = {}
        crossed = 0
        for o in odd:
            if o >= self.r:
                self._cross[o] = crossed
            crossed += self._unit[o]
        for name in ("level_basis", "orbits", "_pack", "_insert_letter",
                     "_lead", "low", "bracket", "_pair", "gram_polys",
                     "cartan", "acts_by_weight"):
            setattr(self, name, cache(getattr(self, name)))

    def parity(self, a: int) -> int:
        return 0 if a <= self.m else 1

    def level_basis(self, level: int) -> dict:
        """Content -> tuple of the PBW monomials of that content, in canonical
        order."""
        if level >= CONTENT_LIMIT:
            raise ValueError(f"level {level} overflows a packed key slot")
        grouped: dict[tuple, list] = {}
        for mono in pbw_basis(self.m, self.n, level):
            grouped.setdefault(mono.content(self.m, self.n), []).append(mono)
        return {c: tuple(monos) for c, monos in grouped.items()}

    def orbits(self, level: int) -> tuple:
        """((content, twice the content, orbit representative), ...) for the
        contents of a level in canonical order; the representative is the
        content with each parity class sorted descending."""
        m = self.m
        return tuple(
            (c, tuple(2 * e for e in c),
             (*sorted(c[:m], reverse=True), *sorted(c[m:], reverse=True)))
            for c in sorted(self.level_basis(level)))

    def _pack(self, mono: PBWMonomial) -> tuple:
        """(key, content) of a monomial of this algebra."""
        exps = mono.singles + mono.pairs
        shaped = len(mono.singles) == self.r and len(exps) == len(self._shift)
        content = mono.content(self.m, self.n) if shaped else ()
        if not shaped or min(exps, default=0) < 0 \
                or max(content, default=0) >= CONTENT_LIMIT:
            raise ValueError(f"{mono!r} has no key in ({self.m}, {self.n})")
        return int.from_bytes(bytes(exps), "big"), content

    # -- creation: prepend a letter and straighten ------------------------

    def _insert_letter(self, a: int, x: int) -> dict:
        """c_a^+ x straightened into canonical monomials, as {key: int}: the
        letter moves past each smaller leading single s, leaving the factor
        (s, a) behind, sign-commuted past the odd components before its slot
        (an odd factor squares to zero)."""
        unit = self._unit
        if x < self._no_single or a <= self._lead(x)[0][1]:
            return {x + unit[a - 1]: 1}
        _, s, tail = self._lead(x)[0]          # x = c_s^+ tail, s < a
        sign = -1 if self.parity(a) * self.parity(s) else 1
        out = {key + unit[s - 1]: sign * c
               for key, c in self._insert_letter(a, tail).items()}
        q = self.r + self.slot_index[(s, a)]
        cross = self._cross.get(q)
        if cross is None or not tail >> self._shift[q] & _SLOT_MASK:
            if cross is not None and (tail & cross).bit_count() & 1:
                sign = -sign
            out[tail + unit[q]] = out.get(tail + unit[q], 0) - sign
        return {key: c for key, c in out.items() if c}

    def _add_raised(self, acc: dict, a: int | None, vector: dict,
                    factor: int) -> None:
        """acc += factor * c_a^+ vector, or factor * vector when a is None,
        on {key: (c0, c1)} dicts."""
        for key, (c0, c1) in vector.items():
            for key2, c in (((key, 1),) if a is None
                            else self._insert_letter(a, key).items()):
                c *= factor
                d0, d1 = acc.get(key2, _NIL)
                acc[key2] = (d0 + c * c0, d1 + c * c1)

    # -- lead expansion and the two lowering primitives ---------------------

    def _lead(self, x: int) -> tuple:
        """((coefficient, letter l, rest), ...) with x the sum of
        coefficient * c_l^+ rest, each rest a key one level lower; empty
        for the vacuum.  A leading bracket factor [c_i^+, c_j^+] expands into
        c_i^+ c_j^+ - (-1)^(p(i)p(j)) c_j^+ c_i^+."""
        if not x:
            return ()
        k = self._last - (x.bit_length() - 1) // SLOT_BITS  # first nonzero
        rest = x - self._unit[k]
        if k < self.r:
            return ((1, k + 1, rest),)
        i, j = self.slots[k - self.r]
        sigma = -1 if self.parity(i) * self.parity(j) else 1
        return ((1, i, rest + self._unit[j - 1]),
                (-sigma, j, rest + self._unit[i - 1]))

    def low(self, a: int, x: int) -> dict:
        """c_a^- x as {key: (c0, c1)}, the image c0 + c1 p of degree <= 1
        (bracket's vacuum term is p, and every other step scales by +-1 or
        +-2):  c_a^- c_l^+ R = (-1)^(p(a)p(l)) c_l^+ c_a^- R + B(a, l) R."""
        acc: dict[int, tuple] = {}
        odd = self.parity(a)
        for coeff, l, rest in self._lead(x):
            sign = -coeff if odd and self.parity(l) else coeff
            self._add_raised(acc, l, self.low(a, rest), sign)
            self._add_raised(acc, None, self.bracket(a, l, rest), coeff)
        return _nonzero(acc)

    def bracket(self, a: int, b: int, x: int) -> dict:
        """B(a, b) x as {key: (c0, c1)}, B(a, b) = [c_a^-, c_b^+]: p, the
        pair (0, 1), on the vacuum when a == b, else 0, and
        B(a, b) c_l^+ R = (-1)^((p(a)+p(b))p(l)) c_l^+ B(a, b) R
                          - 2 (-1)^(p(b)p(l)) delta_(a,l) c_b^+ R."""
        lead = self._lead(x)
        acc: dict[int, tuple] = {}
        if not lead and a == b:
            acc[x] = (0, 1)
        odd_ab = (self.parity(a) + self.parity(b)) % 2
        for coeff, l, rest in lead:
            odd_l = self.parity(l)
            sign = -coeff if odd_ab and odd_l else coeff
            self._add_raised(acc, l, self.bracket(a, b, rest), sign)
            if a == l:
                extra = 2 * coeff if self.parity(b) and odd_l else -2 * coeff
                self._add_raised(acc, b, {rest: (1, 0)}, extra)
        return _nonzero(acc)

    # -- contravariant pairing ----------------------------------------------

    def pair_poly(self, m1: PBWMonomial, m2: PBWMonomial) -> PPoly:
        """Gram entry <m1, m2> as a polynomial in p; 0 across contents."""
        (x, c1), (y, c2) = self._pack(m1), self._pack(m2)
        return PPoly._normal(self._pair(x, y)) if c1 == c2 else _ZERO

    def _pair(self, x: int, y: int) -> tuple:
        """Shapovalov recursion <c_l^+ R, Y> = <R, c_l^- Y>, <vac, vac> = 1,
        as a coefficient tuple in normal form; x and y have the same content.
        A lowering pair c0 + c1 p enters as c0 times the lower entry plus c1
        times it shifted up one degree."""
        lead = self._lead(x)
        if not lead:
            return (1,)
        total = [0]
        for coeff, l, rest in lead:
            for z, (c0, c1) in self.low(l, y).items():
                lower = self._pair(rest, z)
                total += [0] * (len(lower) + 1 - len(total))
                c0 *= coeff
                c1 *= coeff
                for i, v in enumerate(lower):
                    total[i] += c0 * v
                    total[i + 1] += c1 * v
        while total and not total[-1]:
            total.pop()
        return tuple(total)

    def gram_polys(self, content: tuple) -> tuple:
        """(basis, upper): the content's monomials in canonical order, and
        per row i the entries pair_poly(basis[i], basis[j]) for j >= i."""
        basis = self.level_basis(sum(content)).get(content, ())
        return basis, tuple(tuple(self.pair_poly(x, y) for y in basis[i:])
                            for i, x in enumerate(basis))

    def cartan(self, content: tuple, positions: tuple, indices: tuple) -> bool:
        """Whether each generator pair b in indices acts by weight
        (acts_by_weight) on the content's basis monomials at positions."""
        basis = self.level_basis(sum(content)).get(content, ())
        return all(self.acts_by_weight(b, basis[i])
                   for b in indices for i in positions)

    def acts_by_weight(self, b: int, mono: PBWMonomial) -> bool:
        """Whether the generator pair b maps mono to (p + 2 content_b) mono:
        c_b^- (c_b^+ x) - (-1)^(p(b)p(b)) c_b^+ (c_b^- x), both halves
        lowered (low) and raised (_insert_letter) on packed keys as pairs."""
        x, content = self._pack(mono)
        acc: dict[int, tuple] = {}
        for y, c in self._insert_letter(b, x).items():
            self._add_raised(acc, None, self.low(b, y), c)
        self._add_raised(acc, b, self.low(b, x), 1 if self.parity(b) else -1)
        return _nonzero(acc) == {x: (2 * content[b - 1], 1)}

@cache
def get_engine(m: int, n: int) -> VermaEngine:
    return VermaEngine(m, n)


# ---------------------------------------------------------------------------
# Gram blocks
# ---------------------------------------------------------------------------

class GramBlock(NamedTuple):
    """One weight space's Gram block at order p, with its elimination.

    matrix holds the exact integer Gram entries at the integer order p.
    minors are the elimination's leading principal minors M_1, M_2, ...
    (ints; all positive on a PSD block); pivot_indices are the basis
    positions symmetric_rank_psd pivoted on, in pivot order, or None when
    the elimination stalled on an indefinite block.
    """

    m: int
    n: int
    p: int
    content: tuple[int, ...]
    basis: list[PBWMonomial]
    matrix: list[list[int]]
    rank: int
    psd: bool
    minors: list[int]
    pivot_indices: list[int] | None

    @property
    def size(self) -> int:
        return len(self.basis)

    @property
    def weight(self) -> tuple[int, ...]:
        """The doubled weight of the content at order p."""
        return gz.doubled_weight(self.content, self.m, self.n, self.p)


def level_contents(m: int, n: int, level: int) -> list[tuple[int, ...]]:
    return sorted(get_engine(m, n).level_basis(level))


def basis_for_content(m: int, n: int, content) -> list[PBWMonomial]:
    groups = get_engine(m, n).level_basis(sum(content))
    return list(groups.get(tuple(content), ()))


def gram_block_for_content(m: int, n: int, p: int, content) -> GramBlock:
    """Gram block of the weight space of one creation content: the
    engine's memoized entry polynomials (gram_polys) evaluated at the
    integer order p into int rows, filled symmetric from the triangle and
    eliminated by symmetric_rank_psd.  A non-integer order is a TypeError
    before any entry is evaluated."""
    p = index(p)
    basis, upper = get_engine(m, n).gram_polys(tuple(content))
    mat = [[0] * len(basis) for _ in basis]
    for i, row in enumerate(upper):
        for j, poly in enumerate(row, i):
            mat[i][j] = mat[j][i] = poly.evaluate(p)
    return GramBlock(m, n, p, tuple(content), list(basis), mat,
                     *symmetric_rank_psd(mat))


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


def gram_records_up_to(m: int, n: int, p: int, level_max: int):
    """The records of levels <= level_max in canonical order (level, then
    content), one Gram block built per S_m x S_n orbit of contents.

    The block is the orbit representative's, the content with each parity
    class sorted descending (engine.orbits), built when the walk first
    reaches the orbit.  Its size, rank, PSD flag and pivots stand for each
    content of the orbit under that content's doubled weight, with the
    Cartan identity {c_b^-, c_b^+} = p + 2 content_b checked for every boson
    index b (engine.cartan) on every pivot monomial, the basis monomial at
    one of the block's pivot indices: the elimination's LDL transform rows
    lie in the span of the pivot monomials.
    """
    engine = get_engine(m, n)
    bosons = tuple(range(m + 1, m + n + 1))
    vacuum = gz.doubled_weight((0,) * (m + n), m, n, p)
    for level in range(level_max + 1):
        by_orbit: dict[tuple, tuple] = {}
        for content, twice, rep in engine.orbits(level):
            tail = by_orbit.get(rep)
            if tail is None:
                blk = gram_block_for_content(m, n, p, rep)
                pivots = blk.pivot_indices
                tail = by_orbit[rep] = (
                    blk.size, blk.rank, blk.psd,
                    None if pivots is None else len(pivots),
                    pivots is not None
                    and engine.cartan(rep, tuple(pivots), bosons))
            yield GramRecord(content, tuple(map(add, vacuum, twice)), *tail)


# ---------------------------------------------------------------------------
# oracle reports
# ---------------------------------------------------------------------------

def diagonal_values(rec: GramRecord) -> list[int]:
    """Sorted values of the last generator pair's anticommutator on the
    G-orthogonal basis of LDL transform rows of the record's block, at the
    record's order.

    On a transform row u_k the value is (u_k^T G B u_k) / (u_k^T G u_k), B
    the pair.  Every u_k lies in the span of the pivot monomials, so if B
    acts by the weight's last entry w on each pivot monomial (the record's
    Cartan verdict), B u_k = w u_k and every value is the integer w.  Raises
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
    return [rec.weight[-1]] * rec.pivot_count


def diagonal_check(m: int, n: int, p: int, level_max: int,
                   records: list[GramRecord]) -> dict:
    """Diagonal action of the last generator pair versus the pattern labels.

    On a G-orthogonal basis of every non-radical block, the last pair's
    anticommutator (read off the Cartan identity, as in diagonal_values)
    must take the patterns' p + 2*(top row sum - second row sum) as a
    multiset per weight; a failed identity is an "error" failure.
    `records` are those of gram_records_up_to(m, n, p, level_max), so each
    content has its orbit representative's verdict, checked there for every
    boson index; they are read in their given order, and a record whose
    level exceeds level_max is an IndexError.
    """
    if n < 1:
        raise ValueError("the last generator pair is bosonic only when n >= 1")
    counts = [gz.pattern_counts(m, n, level, max_width=p)
              for level in range(level_max + 1)]
    failures = []
    checked = 0
    for rec in records:
        try:
            values = diagonal_values(rec)
        except ArithmeticError as exc:
            failures.append({"weight": list(rec.weight), "error": str(exc)})
            continue
        # a pattern's p + 2*(top row sum - second row sum) is the last
        # entry of its doubled weight
        expected = [rec.weight[-1]] * counts[sum(rec.content)][rec.content]
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
    content has its orbit representative's rank.  At a level <= p the widths
    p and p + 1 cap nothing, so no witness is sought there.  A cut is
    expected where an (m|n)-hook partition of first part p + 1 >= 1 exists
    in range, read off symfunc's partition list rather than the GZ top rows
    the witness comes from, so the two sides check each other.
    """
    def weight(content):
        return list(gz.doubled_weight(content, m, n, p))

    by_level: dict[int, list[GramRecord]] = {}
    for rec in records:
        by_level.setdefault(sum(rec.content), []).append(rec)
    failures = []
    witness = None
    for level in range(level_max + 1):
        capped = gz.pattern_counts(m, n, level, max_width=p)
        ranks = {rec.content: rec.rank for rec in by_level.get(level, ())}
        for c, rank in ranks.items():
            if rank != capped[c]:
                failures.append({"level": level, "weight": weight(c),
                                 "rank": rank, "patterns": capped[c]})
        for c, cnt in capped.items():
            if c not in ranks:
                failures.append({"level": level, "weight": weight(c),
                                 "rank": 0, "patterns": cnt})
        if witness is None and p < level:
            wide = gz.pattern_counts(m, n, level, max_width=p + 1)
            for c in sorted(wide):
                if wide[c] > capped[c]:
                    witness = {"level": level, "weight": weight(c),
                               "wide_count": wide[c],
                               "capped_count": capped[c]}
                    break
    cut_expected = p >= 0 and any(
        la[0] == p + 1 for level in range(p + 1, level_max + 1)
        for la in hook_partitions(level, m, n, max_width=p + 1))
    ok = not failures and (witness is not None) == cut_expected
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "failures": failures, "cut_witness": witness,
            "cut_expected": cut_expected, "ok": ok}
