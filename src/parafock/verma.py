"""Induced-module oracle: PBW basis, straightening, contravariant Gram forms.

The module of order p is realized on monomials in the creation generators
c_1..c_r (r = m+n) and their pairwise brackets; the annihilation action is
computed by pushing lowering operators to the vacuum with the triple-relation
rewriting rules, entirely in exact arithmetic.  Vacuum expectations are cached
as polynomials in p, so a single cache serves every order.

Per-weight Gram matrices of the contravariant form (reverse the word, swap
raising and lowering) have exact rank, positive-semidefiniteness certificate
and radical; the ranks are the weight multiplicities of the irreducible
quotient.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .rational_linalg import symmetric_rank_psd
from . import patterns as gz
from .symfunc import hook_partitions


# ---------------------------------------------------------------------------
# polynomials in the order parameter
# ---------------------------------------------------------------------------

class PPoly:
    """Univariate polynomial in the module order p, with integer coefficients.

    Gram entries and action images lie in Z[p]: the rewriting rules only
    multiply by +-1, +-2 and p.  Values at an order are exact Fractions.
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

    def __neg__(self):
        return PPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, PPoly):
            if self.is_zero() or other.is_zero():
                return PPoly()
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        out[i + j] += a * b
            return PPoly(out)
        return PPoly(tuple(other * c for c in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, PPoly):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def evaluate(self, p) -> Fraction:
        """Exact value at p: Horner on the numerator, one division at the end."""
        p = Fraction(p)
        num, den = p.numerator, p.denominator
        acc = 0
        for k, c in enumerate(reversed(self.coeffs)):
            acc = acc * num + c * den ** k
        return Fraction(acc, den ** max(len(self.coeffs) - 1, 0))

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


# ---------------------------------------------------------------------------
# PBW monomials
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def pair_slots(m: int, n: int) -> tuple[tuple[int, int], ...]:
    """Lexicographic list of bracket factors (i, j), i < j, 1-based."""
    r = m + n
    return tuple((i, j) for i in range(1, r + 1) for j in range(i + 1, r + 1))


def is_mixed_pair(pr, m: int) -> bool:
    return pr[0] <= m < pr[1]


@dataclass(frozen=True)
class PBWMonomial:
    """Exponents of the ordered product: singles first, bracket factors after.

    Mixed bracket factors square to zero, so their exponents stay in {0, 1}.
    """

    singles: tuple[int, ...]
    pairs: tuple[int, ...]

    def degree(self) -> int:
        return sum(self.singles) + 2 * sum(self.pairs)

    def content(self, m: int, n: int) -> tuple[int, ...]:
        out = list(self.singles)
        for (i, j), e in zip(pair_slots(m, n), self.pairs):
            if e:
                out[i - 1] += e
                out[j - 1] += e
        return tuple(out)

    def doubled_weight(self, m: int, n: int, p: int) -> tuple[int, ...]:
        return tuple(
            (-p if k < m else p) + 2 * c
            for k, c in enumerate(self.content(m, n))
        )

    def sort_key(self):
        return (self.singles, self.pairs)


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
    out.sort(key=PBWMonomial.sort_key)
    return out


# ---------------------------------------------------------------------------
# the straightening engine
# ---------------------------------------------------------------------------

class VermaEngine:
    """The p-independent caches of one algebra (m, n), shared by every order.

    Reduced operator words, straightened creation words, Gram entries and
    action images are kept as polynomials in p, and the PBW basis is kept
    grouped by content, per level.  The caches are unbounded and never
    evicted: they grow with the levels and monomials asked for, and
    get_engine keeps one engine per (m, n) for the life of the process.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.r = m + n
        self.slots = pair_slots(m, n)
        self.slot_index = {pr: i for i, pr in enumerate(self.slots)}
        self._reduce_cache: dict[tuple, dict] = {}
        self._straighten_cache: dict[tuple, dict] = {}
        self._pair_cache: dict[tuple, PPoly] = {}
        self._image_cache: dict[tuple, dict] = {}
        self._level_cache: dict[int, dict] = {}

    def parity(self, a: int) -> int:
        return 0 if a <= self.m else 1

    def level_basis(self, level: int) -> dict:
        """Content -> tuple of the PBW monomials of that content, in canonical
        order; pbw_basis runs once per level."""
        groups = self._level_cache.get(level)
        if groups is None:
            grouped: dict[tuple, list] = {}
            for mono in pbw_basis(self.m, self.n, level):
                grouped.setdefault(mono.content(self.m, self.n), []).append(mono)
            groups = {c: tuple(monos) for c, monos in grouped.items()}
            self._level_cache[level] = groups
        return groups

    # -- reduction of mixed operator words to creation words ---------------

    def reduce_word(self, ops: tuple) -> dict:
        """Normal-order an operator word applied to the vacuum.

        ops is a tuple of ('+', a), ('-', a) and ('B', a, b) items, the last
        acting first... i.e. standard operator order, vacuum at the right.
        Returns {creation letter tuple: PPoly coefficient}.
        """
        cached = self._reduce_cache.get(ops)
        if cached is not None:
            return cached
        idx = None
        for i in range(len(ops) - 1, -1, -1):
            if ops[i][0] != "+":
                idx = i
                break
        if idx is None:
            result = {tuple(a for (_, a) in ops): _ONE}
            self._reduce_cache[ops] = result
            return result
        op = ops[idx]
        out: dict[tuple, PPoly] = {}

        def acc(words, factor):
            for w, c in words.items():
                val = factor * c
                prev = out.get(w)
                out[w] = val if prev is None else prev + val

        if idx == len(ops) - 1:
            # the op sits on the vacuum
            if op[0] == "B" and op[1] == op[2]:
                acc(self.reduce_word(ops[:idx]), _P)
            # lowering ops and off-diagonal B annihilate the vacuum
        else:
            nxt = ops[idx + 1]
            c = nxt[1]
            pc = self.parity(c)
            if op[0] == "-":
                a = op[1]
                sign = -1 if (self.parity(a) * pc) % 2 else 1
                swapped = ops[:idx] + (nxt, op) + ops[idx + 2:]
                acc(self.reduce_word(swapped), sign)
                bterm = ops[:idx] + (("B", a, c),) + ops[idx + 2:]
                acc(self.reduce_word(bterm), 1)
            else:  # ('B', a, b)
                a, b = op[1], op[2]
                degb = (self.parity(a) + self.parity(b)) % 2
                sign = -1 if (degb * pc) % 2 else 1
                swapped = ops[:idx] + (nxt, op) + ops[idx + 2:]
                acc(self.reduce_word(swapped), sign)
                if a == c:
                    extra = -2 * (-1 if (self.parity(b) * pc) % 2 else 1)
                    bterm = ops[:idx] + (("+", b),) + ops[idx + 2:]
                    acc(self.reduce_word(bterm), extra)
        out = {w: v for w, v in out.items() if not v.is_zero()}
        self._reduce_cache[ops] = out
        return out

    # -- creation words -> canonical PBW monomials --------------------------

    def straighten(self, word: tuple) -> dict:
        """Expand a creation-letter word into canonical monomials (int coeffs)."""
        cached = self._straighten_cache.get(word)
        if cached is not None:
            return cached
        if not word:
            empty = PBWMonomial((0,) * self.r, (0,) * len(self.slots))
            result = {empty: 1}
        else:
            head, rest = word[0], word[1:]
            result = {}
            for mono, c in self.straighten(rest).items():
                for mono2, c2 in self._insert_letter(head, mono).items():
                    result[mono2] = result.get(mono2, 0) + c * c2
            result = {k: v for k, v in result.items() if v}
        self._straighten_cache[word] = result
        return result

    def _insert_letter(self, a: int, mono: PBWMonomial) -> dict:
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

    # -- monomials -> words --------------------------------------------------

    @lru_cache(maxsize=None)
    def _monomial_words_cached(self, mono: PBWMonomial):
        letters = []
        for a, e in enumerate(mono.singles, start=1):
            letters.extend([a] * e)
        alternatives = [[(1, tuple(letters))]]
        for pr, e in zip(self.slots, mono.pairs):
            i, j = pr
            sgn = -1 if (self.parity(i) * self.parity(j)) % 2 else 1
            factor = [(1, (i, j)), (-sgn, (j, i))]
            alternatives.extend([factor] * e)
        out = []
        for combo in itertools.product(*alternatives):
            coeff = 1
            word: tuple = ()
            for c, w in combo:
                coeff *= c
                word = word + w
            out.append((coeff, word))
        return tuple(out)

    def monomial_words(self, mono: PBWMonomial):
        """Expansion of the monomial into signed creation-letter words."""
        return self._monomial_words_cached(mono)

    # -- contravariant pairing ----------------------------------------------

    def pair_poly(self, m1: PBWMonomial, m2: PBWMonomial) -> PPoly:
        """Gram entry as a polynomial in p: reverse one side, swap signs, reduce."""
        key = (m1, m2)
        cached = self._pair_cache.get(key)
        if cached is not None:
            return cached
        if m1.content(self.m, self.n) != m2.content(self.m, self.n):
            self._pair_cache[key] = _ZERO
            return _ZERO
        total = _ZERO
        for c1, w1 in self.monomial_words(m1):
            lowering = tuple(("-", a) for a in reversed(w1))
            for c2, w2 in self.monomial_words(m2):
                ops = lowering + tuple(("+", a) for a in w2)
                val = self.reduce_word(ops).get((), _ZERO)
                if not val.is_zero():
                    total = total + (c1 * c2) * val
        self._pair_cache[key] = total
        return total

    # -- generator action -----------------------------------------------------

    def _label_opwords(self, label):
        """(scalar, [(integer coefficient, operator word)]) of a basis element."""
        if label[0] == "c":
            _, a, s = label
            return 1, [(1, (("+", a),) if s == "+" else (("-", a),))]
        if label[0] == "h":
            _, k = label
            sgn = -1 if self.parity(k) else 1
            return Fraction(1, 2), [
                (1, (("+", k), ("-", k))),
                (-sgn, (("-", k), ("+", k))),
            ]
        if label[0] == "bb":
            _, a, b, s1, s2 = label
            opa = ("+", a) if s1 == "+" else ("-", a)
            opb = ("+", b) if s2 == "+" else ("-", b)
            sgn = -1 if (self.parity(a) * self.parity(b)) % 2 else 1
            return 1, [(1, (opa, opb)), (-sgn, (opb, opa))]
        raise ValueError(f"unknown algebra element {label!r}")

    def _action_image(self, label, mono: PBWMonomial) -> dict:
        """{monomial: PPoly}: the label's operator words applied to one
        monomial, before the label's scalar; cached per (label, monomial)."""
        key = (label, mono)
        cached = self._image_cache.get(key)
        if cached is not None:
            return cached
        _, opwords = self._label_opwords(label)
        out: dict[PBWMonomial, PPoly] = {}
        for mc, mw in self.monomial_words(mono):
            tail = tuple(("+", a) for a in mw)
            for oc, ops in opwords:
                for word, poly in self.reduce_word(ops + tail).items():
                    for mono2, c2 in self.straighten(word).items():
                        val = (mc * oc * c2) * poly
                        prev = out.get(mono2)
                        out[mono2] = val if prev is None else prev + val
        out = {k: v for k, v in out.items() if not v.is_zero()}
        self._image_cache[key] = out
        return out

    def act(self, label, vector: dict, p) -> dict:
        """Left action of a basis element on a module vector, order p.

        vector maps PBWMonomial -> Fraction; labels are ('c', j, sign),
        ('h', k) or ('bb', j, k, sign, sign) as in the algebra basis.
        """
        p = Fraction(p)
        scalar, _ = self._label_opwords(label)
        out: dict[PBWMonomial, Fraction] = {}
        for mono, coeff in vector.items():
            coeff = scalar * Fraction(coeff)
            for mono2, poly in self._action_image(label, mono).items():
                out[mono2] = out.get(mono2, 0) + coeff * poly.evaluate(p)
        return {k: v for k, v in out.items() if v}


@lru_cache(maxsize=None)
def get_engine(m: int, n: int) -> VermaEngine:
    return VermaEngine(m, n)


def act(label, vector: dict, m: int, n: int, p) -> dict:
    """Module action of an algebra basis element (module-level convenience)."""
    return get_engine(m, n).act(label, vector, p)


# ---------------------------------------------------------------------------
# Gram blocks
# ---------------------------------------------------------------------------

@dataclass
class GramBlock:
    m: int
    n: int
    p: int
    content: tuple[int, ...]
    weight: tuple[int, ...]            # doubled weight
    basis: list[PBWMonomial]
    matrix: list[list[Fraction]]
    rank: int
    psd: bool
    pivots: list[Fraction]
    radical_basis: list[dict]          # monomial -> Fraction vectors

    @property
    def size(self) -> int:
        return len(self.basis)


def level_contents(m: int, n: int, level: int) -> list[tuple[int, ...]]:
    return sorted(get_engine(m, n).level_basis(level))


def basis_for_content(m: int, n: int, content) -> list[PBWMonomial]:
    groups = get_engine(m, n).level_basis(sum(content))
    return list(groups.get(tuple(content), ()))


def doubled_weight_of_content(content, m: int, n: int, p: int) -> tuple[int, ...]:
    return tuple((-p if k < m else p) + 2 * c for k, c in enumerate(content))


def gram_block_for_content(m: int, n: int, p: int, content,
                           order: str = "standard") -> GramBlock:
    """Gram block of one weight space; `order` flips the basis enumeration
    (for the ordering-independence check)."""
    engine = get_engine(m, n)
    basis = basis_for_content(m, n, content)
    if order == "reversed":
        basis = list(reversed(basis))
    elif order != "standard":
        raise ValueError(f"unknown order {order!r}")
    mat = [[Fraction(0)] * len(basis) for _ in basis]
    for i, a in enumerate(basis):
        for j in range(i, len(basis)):
            val = engine.pair_poly(a, basis[j]).evaluate(p)
            mat[i][j] = val
            mat[j][i] = val
    rank, psd, pivots, radical = symmetric_rank_psd(mat)
    rad_vectors = [
        {mono: c for mono, c in zip(basis, vec) if c} for vec in radical
    ]
    return GramBlock(
        m=m, n=n, p=p, content=tuple(content),
        weight=doubled_weight_of_content(content, m, n, p),
        basis=basis, matrix=mat, rank=rank, psd=psd, pivots=pivots,
        radical_basis=rad_vectors,
    )


def gram_block(m: int, n: int, p: int, weight) -> GramBlock:
    """Gram block addressed by doubled weight (the external convention)."""
    content = gz.content_from_doubled_weight(weight, m, n, p)
    return gram_block_for_content(m, n, p, content)


def gram_blocks_up_to(m: int, n: int, p: int, level_max: int,
                      order: str = "standard"):
    for level in range(level_max + 1):
        for content in level_contents(m, n, level):
            yield gram_block_for_content(m, n, p, content, order=order)


def irreducible_dims(m: int, n: int, p: int, level_max: int) -> dict:
    """Doubled weight -> Gram rank, over all weight spaces at levels <= level_max."""
    return {
        blk.weight: blk.rank for blk in gram_blocks_up_to(m, n, p, level_max)
    }


def collect_gram_blocks(m: int, n: int, p: int, level_max: int) -> list[GramBlock]:
    """All blocks up to level_max in canonical order (level, then content)."""
    return list(gram_blocks_up_to(m, n, p, level_max))


def _blocks_by_level(m: int, n: int, p: int, level_max: int,
                     blocks: list[GramBlock] | None) -> dict[int, list[GramBlock]]:
    """Level -> the given blocks, or freshly built ones when blocks is None."""
    if blocks is None:
        blocks = collect_gram_blocks(m, n, p, level_max)
    by_level: dict[int, list[GramBlock]] = {}
    for blk in blocks:
        by_level.setdefault(sum(blk.content), []).append(blk)
    return by_level


def verma_dims(m: int, n: int, level_max: int) -> dict[int, int]:
    """Level -> monomial count (the graded dimension of the induced module)."""
    return {lv: len(pbw_basis(m, n, lv)) for lv in range(level_max + 1)}


# ---------------------------------------------------------------------------
# oracle reports
# ---------------------------------------------------------------------------

def _orthogonalize(block: GramBlock):
    """Exact Gram-Schmidt against the block form; returns coordinate vectors."""
    g = block.matrix
    nb = block.size

    def form(u, v):
        return sum(u[i] * sum(g[i][j] * v[j] for j in range(nb) if v[j])
                   for i in range(nb) if u[i])

    kept: list[list[Fraction]] = []
    norms: list[Fraction] = []
    for i in range(nb):
        u = [Fraction(0)] * nb
        u[i] = Fraction(1)
        for v, nv in zip(kept, norms):
            c = form(v, u)
            if c:
                u = [x - c / nv * y for x, y in zip(u, v)]
        nu = form(u, u)
        if nu:
            kept.append(u)
            norms.append(nu)
    return kept, norms


def diagonal_values(block: GramBlock) -> list[Fraction]:
    """Sorted values of the last generator pair's anticommutator on an
    orthogonal basis of the block's non-radical part, at the block's order.

    Raises ArithmeticError if the action leaves the block's weight space.
    """
    r = block.m + block.n
    label = ("bb", r, r, "-", "+")
    engine = get_engine(block.m, block.n)
    basis_set = set(block.basis)
    kept, norms = _orthogonalize(block)
    values = []
    for u, nu in zip(kept, norms):
        vec = {mono: c for mono, c in zip(block.basis, u) if c}
        image = engine.act(label, vec, block.p)
        if any(mono not in basis_set for mono in image):
            raise ArithmeticError(
                f"the action left the weight space {list(block.weight)}")
        w = [image.get(mono, Fraction(0)) for mono in block.basis]
        num = sum(
            u[i] * sum(block.matrix[i][j] * w[j] for j in range(block.size))
            for i in range(block.size)
        )
        values.append(num / nu)
    return sorted(values)


def diagonal_check(m: int, n: int, p: int, level_max: int,
                   blocks: list[GramBlock] | None = None) -> dict:
    """Diagonal action of the last generator pair versus the pattern labels.

    For an orthogonal basis of every non-radical block, the value of the
    anticommutator of the last lowering/raising pair on a unit vector must
    reproduce p + 2*(top row sum - second row sum) of the matching patterns,
    as a multiset per weight.  `blocks` are those of collect_gram_blocks(m,
    n, p, level_max), built here when not given.
    """
    if n < 1:
        raise ValueError("the last generator pair is bosonic only when n >= 1")
    by_level = _blocks_by_level(m, n, p, level_max, blocks)
    r = m + n
    failures = []
    checked = 0
    for level in range(level_max + 1):
        expected_by_weight: dict[tuple, list] = {}
        for top in gz.top_rows_for_level(m, n, p, level, cap=True):
            for pat in gz.fillings(top, m, n):
                w = gz.pattern_weight(pat, p)
                val = p + 2 * (sum(pat.row(r)) - (sum(pat.row(r - 1)) if r > 1 else 0))
                expected_by_weight.setdefault(w, []).append(Fraction(val))
        for blk in by_level.get(level, ()):
            try:
                values = diagonal_values(blk)
            except ArithmeticError as exc:
                failures.append({"weight": list(blk.weight), "error": str(exc)})
                continue
            expected = sorted(expected_by_weight.get(blk.weight, []))
            checked += len(values)
            if values != expected:
                failures.append({
                    "weight": list(blk.weight),
                    "got": [str(v) for v in values],
                    "expected": [str(v) for v in expected],
                })
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "checked": checked, "failures": failures, "ok": not failures}


def radical_cut_check(m: int, n: int, p: int, level_max: int,
                      blocks: list[GramBlock] | None = None) -> dict:
    """Ranks match the width-capped pattern counts; the cap is sharp.

    Verifies per weight that the Gram rank equals the number of patterns with
    top-row width <= p, and that admitting width p+1 strictly overcounts at
    some weight of some level (whenever such patterns exist in range).
    `blocks` are those of collect_gram_blocks(m, n, p, level_max), built here
    when not given.
    """
    by_level = _blocks_by_level(m, n, p, level_max, blocks)
    failures = []
    witness = None
    saw_wide = False
    for level in range(level_max + 1):
        capped = gz.weight_pattern_counts(m, n, p, level, cap=True)
        wide = gz.weight_pattern_counts(m, n, p, level, width=p + 1)
        ranks = {blk.weight: blk.rank for blk in by_level.get(level, ())}
        for w, rank in ranks.items():
            if rank != capped.get(w, 0):
                failures.append({"level": level, "weight": list(w),
                                 "rank": rank, "patterns": capped.get(w, 0)})
        for w, cnt in capped.items():
            if w not in ranks and cnt:
                failures.append({"level": level, "weight": list(w),
                                 "rank": 0, "patterns": cnt})
        if wide != capped:
            saw_wide = True
            if witness is None:
                for w in sorted(wide):
                    if wide[w] > capped.get(w, 0):
                        witness = {"level": level, "weight": list(w),
                                   "wide_count": wide[w],
                                   "capped_count": capped.get(w, 0)}
                        break
    cut_expected = any(
        la and la[0] == p + 1
        for level in range(level_max + 1)
        for la in hook_partitions(level, m, n)
    )
    ok = not failures and (witness is not None) == cut_expected == saw_wide
    return {"m": m, "n": n, "p": p, "level_max": level_max,
            "failures": failures, "cut_witness": witness,
            "cut_expected": cut_expected, "ok": ok}
