"""Matrix realization of the orthosymplectic Lie superalgebra osp(2m+1|2n).

Matrices are (2m+2n+1)-square, sparse, with integer entries plus a symbolic
power of sqrt(2): the distinguished creation/annihilation generators are
sqrt(2)-multiples of elementary matrices with entries +-1, every bracket of
two of them is an integer matrix (sqrt(2)**2 = 2 folds into the entries), and
every coefficient the relations scale by is an integer.  Index grading:
rows/columns 1..2m+1 are even, the remaining 2n are odd.  All stored matrices
are parity homogeneous; mixed sums are rejected so the superbracket sign is
always well defined.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

EVEN, ODD = 0, 1


def generator_parity(j: int, m: int) -> int:
    """Degree of the j-th generator pair: even for j <= m, odd beyond."""
    return EVEN if j <= m else ODD


def index_parity(idx: int, m: int) -> int:
    return EVEN if idx <= 2 * m + 1 else ODD


@dataclass(frozen=True)
class GeneratorId:
    index: int  # 1..m+n
    sign: str   # '+' or '-'

    def __post_init__(self):
        if self.sign not in ("+", "-"):
            raise ValueError(f"sign must be '+' or '-', got {self.sign!r}")


class SuperMatrix:
    """Sparse integer matrix with a sqrt(2) power tag and a parity tag.

    The represented value is sqrt(2)**sqrt2_power * entries.  Powers are
    normalized to 0 or 1 by folding sqrt(2)**2 = 2 into the entries.  Entries
    are stored as given: the realization and its brackets only ever produce
    ints, and a matrix scaled by a Fraction structure constant holds
    Fractions.
    """

    __slots__ = ("m", "n", "entries", "sqrt2_power", "parity")

    def __init__(self, m, n, entries=None, sqrt2_power=0, parity=None):
        self.m = m
        self.n = n
        ent = {k: v for k, v in entries.items() if v} if entries else {}
        if sqrt2_power < 0:
            raise ValueError("negative sqrt2 power")
        if sqrt2_power >= 2:
            fold = 2 ** (sqrt2_power // 2)
            ent = {k: v * fold for k, v in ent.items()}
            sqrt2_power %= 2
        self.entries = ent
        self.sqrt2_power = sqrt2_power if ent else 0
        self.parity = self._infer_parity(parity)

    def _infer_parity(self, declared):
        pars = {
            (index_parity(i, self.m) + index_parity(j, self.m)) % 2
            for (i, j) in self.entries
        }
        if len(pars) > 1:
            raise ValueError("matrix is not parity homogeneous")
        if not pars:
            return declared
        par = pars.pop()
        if declared is not None and declared != par:
            raise ValueError("declared parity contradicts the support")
        return par

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, other):
        if not isinstance(other, SuperMatrix):
            return NotImplemented
        if (self.m, self.n) != (other.m, other.n):
            return False
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return (self.sqrt2_power == other.sqrt2_power
                and self.entries == other.entries)

    def __add__(self, other):
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("size mismatch")
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.sqrt2_power != other.sqrt2_power:
            raise ValueError("cannot add different sqrt(2) powers exactly")
        if self.parity != other.parity:
            raise ValueError("cannot add matrices of different parity")
        ent = dict(self.entries)
        for k, v in other.entries.items():
            ent[k] = ent.get(k, 0) + v
        return SuperMatrix(self.m, self.n, ent, self.sqrt2_power, self.parity)

    def scale(self, c) -> "SuperMatrix":
        return SuperMatrix(
            self.m, self.n, {k: c * v for k, v in self.entries.items()},
            self.sqrt2_power, self.parity,
        )

    def __matmul__(self, other) -> "SuperMatrix":
        if (self.m, self.n) != (other.m, other.n):
            raise ValueError("size mismatch")
        ent: dict[tuple[int, int], int] = {}
        _add_product(ent, self, other, 1)
        par = None
        if self.parity is not None and other.parity is not None:
            par = (self.parity + other.parity) % 2
        return SuperMatrix(self.m, self.n, ent,
                           self.sqrt2_power + other.sqrt2_power, par)

    def coordinates(self) -> dict:
        """Sparse coordinates tagged with the sqrt(2) power, for linear algebra."""
        return {(self.sqrt2_power, i, j): v for (i, j), v in self.entries.items()}

    def to_records(self) -> list[dict]:
        # ints and Fractions both carry numerator and denominator
        recs = []
        for (i, j), v in sorted(self.entries.items()):
            recs.append({
                "row": i, "col": j,
                "numerator": v.numerator, "denominator": v.denominator,
                "sqrt2_power": self.sqrt2_power,
            })
        return recs

    def __repr__(self):
        tag = "" if self.sqrt2_power == 0 else " * sqrt2"
        return f"SuperMatrix(m={self.m}, n={self.n}, nnz={len(self.entries)}{tag})"


def _add_product(ent: dict, a: SuperMatrix, b: SuperMatrix, c: int) -> None:
    """Add c times the entries of a @ b into ent (zeros are left in)."""
    by_row: dict[int, list] = {}
    for (i, j), v in b.entries.items():
        by_row.setdefault(i, []).append((j, v))
    for (i, k), u in a.entries.items():
        cu = c * u
        for (j, v) in by_row.get(k, ()):
            key = (i, j)
            ent[key] = ent.get(key, 0) + cu * v


def _lines(mat: SuperMatrix) -> tuple[set, set]:
    """The rows and the columns that hold mat's entries.  A term a_ik b_kj
    of ab needs k among a's columns and b's rows, so ab = ba = 0 unless a
    column of one matrix is a row of the other: their supports meet."""
    return {i for i, _ in mat.entries}, {j for _, j in mat.entries}


def _elementary(m, n, pairs, sqrt2_power=0):
    return SuperMatrix(m, n, {(i, j): c for (i, j, c) in pairs}, sqrt2_power)


def make_generator(gid: GeneratorId, m: int, n: int) -> SuperMatrix:
    """The distinguished sqrt(2)-scaled root vectors generating the algebra."""
    j = gid.index
    if m < 0 or n < 0 or m + n < 1:
        raise ValueError("need m, n >= 0 with m + n >= 1")
    if not 1 <= j <= m + n:
        raise ValueError(f"generator index {j} out of range 1..{m + n}")
    z = 2 * m + 1
    if j <= m:
        if gid.sign == "+":
            pairs = [(j, z, 1), (z, j + m, -1)]
        else:
            pairs = [(z, j, 1), (j + m, z, -1)]
    else:
        b = j - m
        if gid.sign == "+":
            pairs = [(z, z + n + b, 1), (z + b, z, 1)]
        else:
            pairs = [(z, z + b, 1), (z + n + b, z, -1)]
    return _elementary(m, n, pairs, sqrt2_power=1)


def cartan(m: int, n: int, k: int) -> SuperMatrix:
    """Diagonal basis element h_k of the Cartan subalgebra."""
    if not 1 <= k <= m + n:
        raise ValueError(f"Cartan index {k} out of range")
    z = 2 * m + 1
    if k <= m:
        pairs = [(k, k, 1), (k + m, k + m, -1)]
    else:
        b = k - m
        pairs = [(z + b, z + b, 1), (z + n + b, z + n + b, -1)]
    return _elementary(m, n, pairs)


def superbracket(a: SuperMatrix, b: SuperMatrix) -> SuperMatrix:
    """ab - (-1)^(deg a * deg b) ba for parity-homogeneous a, b, summed
    into one matrix whose support is checked against deg a + deg b."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError("size mismatch")
    if a.is_zero() or b.is_zero():
        return SuperMatrix(a.m, a.n)
    if a.parity is None or b.parity is None:
        raise ValueError("superbracket needs homogeneous inputs")
    ent: dict[tuple[int, int], int] = {}
    _add_product(ent, a, b, 1)
    _add_product(ent, b, a, 1 if a.parity * b.parity else -1)
    return SuperMatrix(a.m, a.n, ent, a.sqrt2_power + b.sqrt2_power,
                       (a.parity + b.parity) % 2)


# ---------------------------------------------------------------------------
# defining relations
# ---------------------------------------------------------------------------

SIGNS = ("+", "-")


def _sign_val(s: str) -> int:
    return 1 if s == "+" else -1


def triple_bracket_rhs(j, xi, k, eta, l, eps, gens, m):
    """Right-hand side of the defining triple relation as a matrix."""
    res = SuperMatrix(gens[(1, "+")].m, gens[(1, "+")].n)
    eps_pow = 1 if generator_parity(l, m) == EVEN else _sign_val(eps)
    if j == l and eps == ("-" if xi == "+" else "+"):
        sgn = -2 * eps_pow * (-1) ** (generator_parity(k, m) * generator_parity(l, m))
        res = res + gens[(k, eta)].scale(sgn)
    if k == l and eps == ("-" if eta == "+" else "+"):
        res = res + gens[(j, xi)].scale(2 * eps_pow)
    return res


def para_relation_rhs(j, xi, k, eta, l, eps, gens, m):
    """Right-hand side of the parafermion (all indices <= m) or paraboson
    (all > m) double-commutator relation as a matrix."""
    res = SuperMatrix(gens[(1, "+")].m, gens[(1, "+")].n)
    ce, cx, ch = map(_sign_val, (eps, xi, eta))
    # the coefficients of g_j^xi (when k == l) and g_k^eta (when j == l)
    if generator_parity(l, m) == EVEN:
        cj, ck = (ce - ch) ** 2 // 2, -((ce - cx) ** 2 // 2)
    else:
        cj, ck = ce - ch, ce - cx
    if k == l:
        res = res + gens[(j, xi)].scale(cj)
    if j == l:
        res = res + gens[(k, eta)].scale(ck)
    return res


def verify_relations(m: int, n: int) -> tuple[dict, dict]:
    """The reports of the defining triple relations and of the parafermion
    and paraboson double-commutator relations of the two sectors, from one
    pass that brackets each [[g_j^xi, g_k^eta], g_l^eps] once.

    The para relations' left-hand sides are the triple left-hand sides with
    j, k, l in one sector, so each is checked against both right-hand sides
    as it is built.  An outer bracket whose supports do not meet is zero
    (_lines) and is not taken: its triple is still counted, and a shared
    zero matrix is compared against both right-hand sides.
    """
    r = m + n
    gens = {(j, s): make_generator(GeneratorId(j, s), m, n)
            for j in range(1, r + 1) for s in SIGNS}
    lines = {g: _lines(mat) for g, mat in gens.items()}
    zero = SuperMatrix(m, n)
    triple = {"m": m, "n": n, "checked": 0, "failures": []}
    para = {"m": m, "n": n, "checked": 0, "failures": []}
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            for xi in SIGNS:
                for eta in SIGNS:
                    inner = superbracket(gens[(j, xi)], gens[(k, eta)])
                    in_rows, in_cols = _lines(inner)
                    for l in range(1, r + 1):
                        sector = None
                        if j <= m and k <= m and l <= m:
                            sector, base = "parafermion", 0
                        elif j > m and k > m and l > m:
                            sector, base = "paraboson", m
                        for eps in SIGNS:
                            rows, cols = lines[(l, eps)]
                            if in_cols & rows or cols & in_rows:
                                lhs = superbracket(inner, gens[(l, eps)])
                            else:
                                lhs = zero
                            args = (j, xi, k, eta, l, eps, gens, m)
                            triple["checked"] += 1
                            if lhs != triple_bracket_rhs(*args):
                                triple["failures"].append(
                                    {"j": j, "xi": xi, "k": k, "eta": eta,
                                     "l": l, "eps": eps})
                            if sector is None:
                                continue
                            para["checked"] += 1
                            if lhs != para_relation_rhs(*args):
                                para["failures"].append(
                                    {"sector": sector, "j": j - base,
                                     "k": k - base, "l": l - base,
                                     "signs": xi + eta + eps})
    # para failures go sector by sector, then by j, k, l, then by the signs
    # ('+' sorts before '-', as in SIGNS)
    para["failures"].sort(key=lambda f: (f["sector"] == "paraboson", f["j"],
                                         f["k"], f["l"], f["signs"]))
    return triple, para


# ---------------------------------------------------------------------------
# basis and structure constants
# ---------------------------------------------------------------------------

def basis_labels(m: int, n: int) -> list[tuple]:
    """Canonical basis labels: generators plus independent pair brackets.

    ('c', j, s) is a generator; ('bb', j, k, s1, s2) is the superbracket of
    generators j and k with signs s1, s2.  Same-sign pairs take j < k plus the
    bosonic diagonal j == k > m; mixed-sign pairs take all (j, k).
    """
    r = m + n
    labels: list[tuple] = [("c", j, s) for j in range(1, r + 1) for s in SIGNS]
    for s in ("+", "-"):
        for j in range(1, r + 1):
            for k in range(j, r + 1):
                if j == k and j <= m:
                    continue
                labels.append(("bb", j, k, s, s))
    for j in range(1, r + 1):
        for k in range(1, r + 1):
            labels.append(("bb", j, k, "+", "-"))
    return labels


def label_matrix(label: tuple, m: int, n: int) -> SuperMatrix:
    if label[0] == "c":
        _, j, s = label
        return make_generator(GeneratorId(j, s), m, n)
    _, j, k, s1, s2 = label
    return superbracket(make_generator(GeneratorId(j, s1), m, n),
                        make_generator(GeneratorId(k, s2), m, n))


def label_parity(label: tuple, m: int) -> int:
    if label[0] == "c":
        return generator_parity(label[1], m)
    return (generator_parity(label[1], m) + generator_parity(label[2], m)) % 2


class AlgebraBasis:
    """Ordered basis with verified structure constants.

    elements: list of (label, SuperMatrix).  brackets is a half-table: for a
    at or before b in basis order, brackets[(a, b)] maps basis labels, in
    basis order, to the nonzero rational coefficients of the expansion of
    the superbracket of a and b, and a pair whose bracket is zero is not
    stored.  The other half follows from the sign rule
    [b, a] = -(-1)^(deg a * deg b) [a, b], which names the same labels.

    Every basis matrix has a private coordinate, the first of its entries that
    no other basis matrix has (ArithmeticError if one has none).  The
    coefficient of a label is the bracket's entry there over the label's own
    entry there; the bracket minus its expansion must vanish, or it does not
    lie in the span (ArithmeticError).

    Only the pairs whose supports meet are bracketed: any other pair has
    ab = ba = 0 (_lines).  A row index and a column index, built once over
    the basis matrices, give each label the labels that meet it.
    """

    def __init__(self, m: int, n: int):
        self.m = m
        self.n = n
        self.labels = basis_labels(m, n)
        self.elements = [(lab, label_matrix(lab, m, n)) for lab in self.labels]
        mats = dict(self.elements)
        if any(mat.is_zero() for mat in mats.values()):
            raise ArithmeticError("degenerate basis element")

        # each label's private coordinate, an entry no other basis matrix
        # has: it proves the matrices independent and fixes each coefficient
        coords = {lab: mat.coordinates() for lab, mat in self.elements}
        count = Counter(k for col in coords.values() for k in col)
        owner = {}  # private coordinate -> (basis position, label, entry)
        for pos, lab in enumerate(self.labels):
            key = next((k for k in coords[lab] if count[k] == 1), None)
            if key is None:
                raise ArithmeticError(
                    f"basis matrices: {lab} has no coordinate of its own")
            owner[key] = (pos, lab, coords[lab][key])

        lines = [_lines(mat) for _, mat in self.elements]
        # row (column) -> basis positions of the matrices with an entry there
        by_row: dict[int, list[int]] = {}
        by_col: dict[int, list[int]] = {}
        for pos, (rows, cols) in enumerate(lines):
            for i in rows:
                by_row.setdefault(i, []).append(pos)
            for j in cols:
                by_col.setdefault(j, []).append(pos)

        self.brackets: dict[tuple, dict] = {}
        for i, a in enumerate(self.labels):
            rows, cols = lines[i]
            meets = {pos for j in cols for pos in by_row.get(j, ())}
            meets.update(pos for j in rows for pos in by_col.get(j, ()))
            for j in sorted(pos for pos in meets if pos >= i):
                b = self.labels[j]
                rest = superbracket(mats[a], mats[b]).coordinates()
                found = sorted(owner[k] + (v,) for k, v in rest.items()
                               if k in owner)
                coeffs = {}
                for _, lab, w, v in found:
                    coeffs[lab] = Fraction(v, w)
                    # an int quotient keeps the remainder in ints
                    q, r = divmod(v, w)
                    c = coeffs[lab] if r else q
                    for k, x in coords[lab].items():
                        rest[k] = rest.get(k, 0) - c * x
                if any(rest.values()):
                    raise ArithmeticError(
                        f"bracket of {a}, {b} does not lie in the span")
                if coeffs:
                    self.brackets[(a, b)] = coeffs

    @property
    def dimension(self) -> int:
        return len(self.labels)

    def even_labels(self) -> list[tuple]:
        return [lab for lab in self.labels if label_parity(lab, self.m) == EVEN]

    def diagonal_subalgebra_labels(self) -> list[tuple]:
        """The (m+n)^2 mixed-sign pair brackets spanning the gl(m|n) piece."""
        return [lab for lab in self.labels if lab[0] == "bb" and lab[3] != lab[4]]

    def diagonal_subalgebra_closed(self) -> bool:
        """Whether the gl(m|n) piece is bracket-closed; [b, a] names the
        labels of [a, b], so the stored half-table decides it."""
        sub = set(self.diagonal_subalgebra_labels())
        return all(lab in sub for (a, b), coeffs in self.brackets.items()
                   if a in sub and b in sub for lab in coeffs)


def expected_dimension(m: int, n: int) -> int:
    return 2 * (m + n) ** 2 + m + 3 * n


def expected_even_dimension(m: int, n: int) -> int:
    return m * (2 * m + 1) + n * (2 * n + 1)


def structure_constants(m: int, n: int) -> AlgebraBasis:
    """Build and verify the full bracket table on the canonical basis."""
    if m + n < 1:
        raise ValueError("need m + n >= 1")
    basis = AlgebraBasis(m, n)
    if basis.dimension != expected_dimension(m, n):
        raise ArithmeticError("basis size does not match the root count")
    # the private coordinates have proven every basis matrix independent, so
    # the even part's dimension is the number of even labels
    if len(basis.even_labels()) != expected_even_dimension(m, n):
        raise ArithmeticError("even part has unexpected dimension")
    if not basis.diagonal_subalgebra_closed():
        raise ArithmeticError("mixed-sign pair brackets are not bracket-closed")
    return basis
