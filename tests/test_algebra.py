"""Matrix realization: generators, brackets, defining relations, basis."""

import hashlib
import json
import re
from fractions import Fraction

import pytest

from parafock import algebra as alg
from parafock import rational_linalg
from parafock.cli import main


def test_generator_matrices_m1n1():
    g = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    assert g.sqrt2_power == 1
    assert g.entries == {(1, 3): Fraction(1), (3, 2): Fraction(-1)}
    g = alg.make_generator(alg.GeneratorId(2, "+"), 1, 1)
    assert g.entries == {(3, 5): Fraction(1), (4, 3): Fraction(1)}
    g = alg.make_generator(alg.GeneratorId(2, "-"), 1, 1)
    assert g.entries == {(3, 4): Fraction(1), (5, 3): Fraction(-1)}


def test_generator_index_out_of_range():
    with pytest.raises(ValueError):
        alg.make_generator(alg.GeneratorId(0, "+"), 1, 1)
    with pytest.raises(ValueError):
        alg.make_generator(alg.GeneratorId(3, "+"), 1, 1)
    with pytest.raises(ValueError):
        alg.GeneratorId(1, "x")


def test_generator_id_validates_on_every_construction_path():
    g = alg.GeneratorId(1, "+")
    with pytest.raises(ValueError):
        g._replace(sign="x")
    with pytest.raises(ValueError):
        alg.GeneratorId._make((1, "x"))
    assert g._replace(sign="-") == alg.GeneratorId._make((1, "-"))


def test_generator_id_is_a_frozen_value():
    g = alg.GeneratorId(1, "+")
    with pytest.raises(AttributeError):
        g.sign = "-"
    with pytest.raises(AttributeError):
        g.label = "c"
    assert g == alg.GeneratorId(1, "+")
    assert hash(g) == hash(alg.GeneratorId(1, "+"))
    assert g != alg.GeneratorId(1, "-")
    assert repr(g) == "GeneratorId(index=1, sign='+')"


def test_generator_parities():
    g1 = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    g2 = alg.make_generator(alg.GeneratorId(2, "+"), 1, 1)
    assert g1.parity == alg.EVEN
    assert g2.parity == alg.ODD


def test_cartan_brackets():
    for m, n in ((1, 1), (2, 1), (1, 2)):
        for i in range(1, m + 1):
            br = alg.superbracket(
                alg.make_generator(alg.GeneratorId(i, "-"), m, n),
                alg.make_generator(alg.GeneratorId(i, "+"), m, n))
            assert br == alg.cartan(m, n, i).scale(-2)
        for j in range(m + 1, m + n + 1):
            br = alg.superbracket(
                alg.make_generator(alg.GeneratorId(j, "-"), m, n),
                alg.make_generator(alg.GeneratorId(j, "+"), m, n))
            assert br == alg.cartan(m, n, j).scale(2)


def test_superbracket_of_even_with_itself_vanishes():
    x = alg.make_generator(alg.GeneratorId(1, "+"), 2, 1)
    assert alg.superbracket(x, x).is_zero()


def test_superbracket_rejects_mixed_and_mismatched():
    a = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    b = alg.make_generator(alg.GeneratorId(1, "+"), 2, 1)
    with pytest.raises(ValueError):
        alg.superbracket(a, b)
    with pytest.raises(ValueError):
        a + alg.make_generator(alg.GeneratorId(2, "+"), 1, 1)  # mixed parity


def test_sqrt2_bookkeeping():
    a = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    b = alg.make_generator(alg.GeneratorId(1, "-"), 1, 1)
    prod = a @ b
    assert prod.sqrt2_power == 0  # folded: sqrt2 * sqrt2 = 2
    assert prod.entries[(1, 1)] == 2


@pytest.mark.parametrize(
    "m,n",
    [(m, n) for m in range(5) for n in range(5) if 1 <= m + n <= 4],
)
def test_triple_relations(m, n):
    rep = alg.verify_relations(m, n)[0]
    assert rep["failures"] == []
    assert rep["checked"] == 8 * (m + n) ** 3


def test_triple_relation_specific_instance():
    # substituting xi=+, eta=-, eps=+ with equal indices gives twice the raiser
    m, n = 2, 1
    gens = {(j, s): alg.make_generator(alg.GeneratorId(j, s), m, n)
            for j in (1, 2, 3) for s in ("+", "-")}
    lhs = alg.superbracket(
        alg.superbracket(gens[(1, "+")], gens[(1, "-")]), gens[(1, "+")])
    assert lhs == gens[(1, "+")].scale(2)


@pytest.mark.parametrize("m,n", [(2, 0), (0, 2), (2, 1), (1, 2)])
def test_para_relations(m, n):
    rep = alg.verify_relations(m, n)[1]
    assert rep["failures"] == []


def test_para_relation_failure_records(monkeypatch):
    """With f_1^+ and b_2^- doubled on (2,2), the failure records keep their
    sector, sector-relative indices, sign string and order."""
    make = alg.make_generator

    def doubled(gid, m, n):
        g = make(gid, m, n)
        return g.scale(2) if (gid.index, gid.sign) in ((1, "+"), (4, "-")) else g

    monkeypatch.setattr(alg, "make_generator", doubled)
    rep = alg.verify_relations(2, 2)[1]
    expected = [
        ("parafermion", (1, 1, 1), "+-+ +-- -++ -+-"),
        ("parafermion", (1, 2, 1), "++- +-- -++ --+"),
        ("parafermion", (2, 1, 1), "++- +-+ -+- --+"),
        ("paraboson", (1, 2, 2), "++- +-+ -+- --+"),
        ("paraboson", (2, 1, 2), "++- +-- -++ --+"),
        ("paraboson", (2, 2, 2), "++- +-+ +-- -++ -+- --+"),
    ]
    assert rep["checked"] == 128
    assert rep["failures"] == [
        {"sector": sector, "j": j, "k": k, "l": l, "signs": signs}
        for sector, (j, k, l), all_signs in expected
        for signs in all_signs.split()]


def bracket(basis, a, b):
    """The expansion of [a, b] for any ordered pair of basis labels: the
    stored half-table entry, or the mirror through the sign rule
    [a, b] = -(-1)^(deg a * deg b) [b, a]; a pair stored nowhere is zero."""
    if (a, b) in basis.brackets:
        return basis.brackets[(a, b)]
    sign = 1 if alg.label_parity(a, basis.m) * alg.label_parity(b, basis.m) \
        else -1
    return {lab: sign * c
            for lab, c in basis.brackets.get((b, a), {}).items()}


def supports_meet(a, b):
    """A column of one matrix is a row of the other, entry by entry."""
    return any(k == i for (_, k) in a.entries for (i, _) in b.entries) \
        or any(k == i for (_, k) in b.entries for (i, _) in a.entries)


def test_verify_algebra_brackets_each_triple_once(monkeypatch, capsys):
    """The relation checks bracket each [g_j^xi, g_k^eta] once and each
    [[g_j^xi, g_k^eta], g_l^eps] once where the supports of the two meet;
    the para check reuses the latter."""
    calls = {"inner": 0, "outer": 0, "basis": 0}
    phase = ["relations"]
    bracket, basis = alg.superbracket, alg.structure_constants

    def counting(a, b):
        if phase[0] == "basis":
            calls["basis"] += 1
        else:  # a generator carries sqrt(2), a bracket of two does not
            calls["inner" if a.sqrt2_power else "outer"] += 1
        return bracket(a, b)

    def tagged(m, n):
        phase[0] = "basis"
        return basis(m, n)

    monkeypatch.setattr(alg, "superbracket", counting)
    monkeypatch.setattr(alg, "structure_constants", tagged)
    assert main(["verify-algebra", "--m", "2", "--n", "2"]) == 0
    capsys.readouterr()
    r = 4
    gens = [alg.make_generator(alg.GeneratorId(j, s), 2, 2)
            for j in range(1, r + 1) for s in alg.SIGNS]
    meeting = sum(supports_meet(bracket(a, b), c)
                  for a in gens for b in gens for c in gens)
    assert calls["inner"] == 4 * r ** 2
    assert calls["outer"] == meeting == 116 < 8 * r ** 3
    assert calls["basis"] > 0


def test_relation_checks_keep_no_table_between_calls(monkeypatch, capsys):
    """A clean run leaves nothing that a run with doubled generators reads."""
    assert main(["verify-algebra", "--m", "2", "--n", "2"]) == 0
    clean = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["failures"] for r in clean[1:3]] == [0, 0]
    make = alg.make_generator

    def doubled(gid, m, n):
        g = make(gid, m, n)
        return g.scale(2) if (gid.index, gid.sign) in ((1, "+"), (4, "-")) else g

    monkeypatch.setattr(alg, "make_generator", doubled)
    assert main(["verify-algebra", "--m", "2", "--n", "2"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    triple, para = recs[1:3]
    assert triple["check"] == "triple_relations" and triple["failures"] > 0
    assert para == {"check": "para_relations", "checked": 128, "failures": 26}
    failures = alg.verify_relations(2, 2)[1]["failures"]
    assert alg.verify_relations(2, 2)[1]["failures"] == failures
    assert len(failures) == para["failures"]


def test_paraboson_anticommutator_instance():
    # [{b1+, b1+}, b1-] = -4 b1+
    m, n = 0, 2
    bp = alg.make_generator(alg.GeneratorId(1, "+"), m, n)
    bm = alg.make_generator(alg.GeneratorId(1, "-"), m, n)
    lhs = alg.superbracket(alg.superbracket(bp, bp), bm)
    assert lhs == bp.scale(-4)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(5) for n in range(5)
                                 if m + n >= 1])
def test_structure_constants(m, n):
    basis = alg.structure_constants(m, n)
    assert basis.dimension == alg.expected_dimension(m, n)
    assert len(basis.diagonal_subalgebra_labels()) == (m + n) ** 2
    assert basis.diagonal_subalgebra_closed()


@pytest.mark.parametrize(
    "m,n", [(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 3)])
def test_every_bracket_reexpands(m, n):
    basis = alg.structure_constants(m, n)
    mats = dict(basis.elements)
    for a in basis.labels:
        for b in basis.labels:
            got = alg.superbracket(mats[a], mats[b])
            acc = alg.SuperMatrix(m, n)
            for lab, c in bracket(basis, a, b).items():
                acc = acc + mats[lab].scale(c)
            assert got == acc, (a, b)


# sha256 of the full table of ordered pairs, in basis order, with each
# expansion's keys, key order, values and value types, for every (m, n)
# with m, n <= 4, as the table of every ordered pair was stored before it
# became a half-table
FULL_TABLE_SHA256 = \
    "4653621419881632b694da6d777b04fc9d244066ec7d741335b8d9811f032ffa"


def test_half_table_gives_the_full_table():
    digest = hashlib.sha256()
    pairs = coefficients = 0
    for m in range(5):
        for n in range(5):
            if m + n < 1:
                continue
            basis = alg.structure_constants(m, n)
            for a in basis.labels:
                for b in basis.labels:
                    expansion = bracket(basis, a, b)
                    pairs += 1
                    coefficients += len(expansion)
                    digest.update(repr((m, n, a, b, [
                        (lab, type(c).__name__, c)
                        for lab, c in expansion.items()])).encode())
    assert (pairs, coefficients) == (92_260, 25_200)
    assert digest.hexdigest() == FULL_TABLE_SHA256


def two_product_bracket(a, b):
    """The superbracket as two products: ab - (-1)^(deg a * deg b) ba."""
    return a @ b + (b @ a).scale(1 if a.parity * b.parity else -1)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 0), (0, 2)])
def test_one_pass_superbracket_matches_two_products(m, n):
    mats = [mat for _, mat in alg.AlgebraBasis(m, n).elements]
    zero = 0
    for a in mats:
        for b in mats:
            got, want = alg.superbracket(a, b), two_product_bracket(a, b)
            assert got.entries == want.entries
            assert got.parity == want.parity == (a.parity + b.parity) % 2
            assert got.sqrt2_power == want.sqrt2_power
            zero += got.is_zero()
    assert 0 < zero < len(mats) ** 2  # zero brackets are compared too
    # generators carry sqrt(2)^1 and pair brackets sqrt(2)^0, so the pairs
    # cover 1 + 1 (folded to 0), 1 + 0 and 0 + 0
    assert {mat.sqrt2_power for mat in mats} == {0, 1}


def test_structure_constants_antisupersymmetric():
    """The sign rule the half-table relies on holds for the matrices, and
    for the expansions read through it."""
    basis = alg.structure_constants(1, 1)
    mats = dict(basis.elements)
    for a in basis.labels:
        pa = alg.label_parity(a, 1)
        for b in basis.labels:
            pb = alg.label_parity(b, 1)
            sgn = -1 if (pa * pb) % 2 == 0 else 1
            assert alg.superbracket(mats[a], mats[b]) \
                == alg.superbracket(mats[b], mats[a]).scale(sgn), (a, b)
            lhs = bracket(basis, a, b)
            rhs = {k: sgn * v for k, v in bracket(basis, b, a).items()}
            assert lhs == rhs, (a, b)


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (0, 2), (3, 3)])
def test_basis_brackets_each_unordered_pair_once(m, n, monkeypatch):
    calls = []
    original = alg.superbracket

    def counting(a, b):
        calls.append(1)
        return original(a, b)

    monkeypatch.setattr(alg, "superbracket", counting)
    basis = alg.AlgebraBasis(m, n)
    d = basis.dimension
    label_brackets = sum(1 for lab in basis.labels if lab[0] == "bb")
    mats = [mat for _, mat in basis.elements]
    meeting = sum(supports_meet(mats[i], mats[j])
                  for i in range(d) for j in range(i, d))
    assert len(calls) == label_brackets + meeting
    assert meeting < d * (d + 1) // 2
    # the half-table stores exactly the at-or-before pairs whose bracket is
    # nonzero, in basis order
    assert list(basis.brackets) == [
        (a, b) for i, (a, mat_a) in enumerate(basis.elements)
        for b, mat_b in basis.elements[i:]
        if not two_product_bracket(mat_a, mat_b).is_zero()]
    assert len(basis.brackets) == {(1, 1): 41, (2, 1): 118, (0, 2): 54,
                                   (3, 3): 939}[(m, n)]


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (1, 2), (2, 2), (0, 3),
                                 (3, 0)])
def test_basis_skips_only_pairs_whose_bracket_is_zero(m, n, monkeypatch):
    """Every ordered pair the row and column indexes skip has ab = ba = 0
    and an empty expansion; every pair they bracket has meeting supports."""
    seen = []
    original = alg.superbracket

    def recording(a, b):
        seen.append((a, b))
        return original(a, b)

    monkeypatch.setattr(alg, "superbracket", recording)
    basis = alg.AlgebraBasis(m, n)
    pos = {id(mat): i for i, (_, mat) in enumerate(basis.elements)}
    bracketed = {(pos[id(a)], pos[id(b)]) for a, b in seen
                 if id(a) in pos and id(b) in pos}
    assert all(i <= j for i, j in bracketed)
    skipped = 0
    for i, (a, mat_a) in enumerate(basis.elements):
        for j, (b, mat_b) in enumerate(basis.elements):
            if (min(i, j), max(i, j)) in bracketed:
                assert supports_meet(mat_a, mat_b), (a, b)
            else:
                skipped += 1
                assert two_product_bracket(mat_a, mat_b).is_zero(), (a, b)
                assert bracket(basis, a, b) == {}, (a, b)
    assert skipped > 0


def test_skips_read_the_matrices_not_the_labels(monkeypatch, capsys):
    """An extra entry (4, 1) on f_2^+ of (2, 0) makes pairs meet whose
    supports are disjoint in the realization; their brackets are then
    taken, so verify-algebra reports the failures they carry."""
    make = alg.make_generator

    def gen(j, s):
        return make(alg.GeneratorId(j, s), 2, 0)

    # [[f_1^+, f_1^-], f_2^+] and the pair f_1^+, [f_1^+, f_2^+] are zero
    assert not supports_meet(alg.superbracket(gen(1, "+"), gen(1, "-")),
                             gen(2, "+"))
    assert not supports_meet(gen(1, "+"),
                             alg.superbracket(gen(1, "+"), gen(2, "+")))

    def extra(gid, m, n):
        g = make(gid, m, n)
        if (gid.index, gid.sign) != (2, "+"):
            return g
        return alg.SuperMatrix(m, n, {**g.entries, (4, 1): 1}, g.sqrt2_power)

    monkeypatch.setattr(alg, "make_generator", extra)
    triple = alg.verify_relations(2, 0)[0]
    assert {"j": 1, "xi": "+", "k": 1, "eta": "-", "l": 2, "eps": "+"} \
        in triple["failures"]
    assert main(["verify-algebra", "--m", "2", "--n", "0"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[-1] == {
        "check": "structure_constants",
        "error": "bracket of ('c', 1, '+'), ('bb', 1, 2, '+', '+') "
                 "does not lie in the span"}


def test_half_integer_coefficients_are_read_exactly(monkeypatch):
    """With [c_1^+, c_1^-] doubled in the basis of (1,1), some private
    entries no longer divide the bracket entries: those coefficients are
    halves, and every expansion still re-expands exactly."""
    original = alg.label_matrix

    def doubled(label, m, n):
        mat = original(label, m, n)
        return mat.scale(2) if label == ("bb", 1, 1, "+", "-") else mat

    monkeypatch.setattr(alg, "label_matrix", doubled)
    basis = alg.structure_constants(1, 1)
    mats = dict(basis.elements)
    halves = 0
    for a in basis.labels:
        for b in basis.labels:
            expansion = bracket(basis, a, b)
            assert all(type(c) is Fraction for c in expansion.values())
            halves += any(c.denominator == 2 for c in expansion.values())
            acc = alg.SuperMatrix(1, 1)
            for lab, c in expansion.items():
                acc = acc + mats[lab].scale(c)
            assert alg.superbracket(mats[a], mats[b]) == acc, (a, b)
    assert halves > 0


def test_even_dimension_needs_no_dense_elimination(monkeypatch):
    """The private coordinates have proven every basis matrix independent,
    so the even part is checked without a dense rank computation."""

    def no_elimination(rows):
        raise AssertionError("dense elimination reached")

    monkeypatch.setattr(rational_linalg, "symmetric_rank_psd", no_elimination)
    basis = alg.structure_constants(3, 3)
    assert len(basis.even_labels()) == alg.expected_even_dimension(3, 3)


def test_even_dimension_mismatch_is_an_error(monkeypatch, capsys):
    expected = alg.expected_even_dimension
    monkeypatch.setattr(alg, "expected_even_dimension",
                        lambda m, n: expected(m, n) + 1)
    with pytest.raises(ArithmeticError, match="even part"):
        alg.structure_constants(1, 1)
    assert main(["verify-algebra", "--m", "1", "--n", "1"]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[-1] == {"check": "structure_constants",
                        "error": "even part has unexpected dimension"}


@pytest.mark.parametrize("closed", [True, False])
def test_closure_is_checked_once(closed, monkeypatch, capsys):
    """verify-algebra reports the closure verdict structure_constants has
    reached without checking again; a piece that is not closed is an error
    record."""
    calls = []

    def verdict(basis):
        calls.append(basis)
        return closed

    monkeypatch.setattr(alg.AlgebraBasis, "diagonal_subalgebra_closed",
                        verdict)
    assert main(["verify-algebra", "--m", "1", "--n", "1"]) == (0 if closed
                                                                else 1)
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(calls) == 1
    if closed:
        assert recs[-1]["closed"] is True
    else:
        assert recs[-1] == {
            "check": "structure_constants",
            "error": "mixed-sign pair brackets are not bracket-closed"}


@pytest.mark.parametrize("fault,error", [
    ("duplicate", "basis matrices: ('c', 1, '+') has no coordinate of its own"),
    ("zero", "degenerate basis element"),
    ("sum", "basis matrices: ('c', 1, '+') has no coordinate of its own"),
    ("outside",
     "bracket of ('c', 1, '+'), ('c', 1, '-') does not lie in the span"),
])
def test_basis_fault_is_an_error_record(fault, error, monkeypatch, capsys):
    """A zero basis matrix, one that leaves another basis matrix without a
    coordinate of its own, or a basis whose brackets leave its span, is a
    structure_constants failure (exit 1, an "error" record), not a
    traceback."""
    m, n = (2, 1) if fault == "sum" else (1, 1)
    original = alg.label_matrix

    def gen(j, s):
        return original(("c", j, s), m, n)

    replaced, replacement = {
        "duplicate": (("c", 1, "-"), lambda: gen(1, "+")),
        "zero": (("c", 1, "-"), lambda: alg.SuperMatrix(m, n)),
        # same parity and sqrt(2) power as the two it sums
        "sum": (("c", 2, "+"), lambda: gen(1, "+") + gen(1, "-")),
        # E_11 in place of [c_1^+, c_1^-]: every matrix keeps an entry of its
        # own, but [c_1^+, c_1^-] itself is no longer in the span
        "outside": (("bb", 1, 1, "+", "-"),
                    lambda: alg.SuperMatrix(m, n, {(1, 1): 1})),
    }[fault]

    def faulty(label, m, n):
        return replacement() if label == replaced else original(label, m, n)

    monkeypatch.setattr(alg, "label_matrix", faulty)
    with pytest.raises(ArithmeticError, match=re.escape(error)):
        alg.structure_constants(m, n)
    assert main(["verify-algebra", "--m", str(m), "--n", str(n)]) == 1
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert recs[-1] == {"check": "structure_constants", "error": error}


@pytest.mark.parametrize("m,n", [(3, 3), (2, 2), (0, 2), (3, 0)])
def test_realization_is_integer(m, n):
    """Basis matrices and triple brackets hold ints; structure constants are
    exact (int or Fraction), never floats."""
    basis = alg.structure_constants(m, n)
    gens = [alg.make_generator(alg.GeneratorId(j, s), m, n)
            for j in range(1, m + n + 1) for s in alg.SIGNS]
    mats = [mat for _, mat in basis.elements]
    mats += [alg.superbracket(alg.superbracket(a, b), c)
             for a in gens for b in gens for c in gens]
    assert all(type(v) is int for mat in mats for v in mat.entries.values())
    assert all(type(c) in (int, Fraction)
               for a in basis.labels for b in basis.labels
               for c in bracket(basis, a, b).values())


def test_cartan_acts_with_root_value():
    basis = alg.structure_constants(1, 1)
    h1 = alg.cartan(1, 1, 1)
    c1p = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    assert alg.superbracket(h1, c1p) == c1p


def test_matrix_serialization_roundtrip():
    g = alg.make_generator(alg.GeneratorId(2, "+"), 2, 2)
    recs = g.to_records()
    assert all(r["sqrt2_power"] == 1 for r in recs)
    back = alg.SuperMatrix(
        2, 2, {(r["row"], r["col"]): Fraction(r["numerator"], r["denominator"])
               for r in recs}, recs[0]["sqrt2_power"])
    assert back == g


def test_not_equal_follows_equality():
    g = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    same = alg.make_generator(alg.GeneratorId(1, "+"), 1, 1)
    other = alg.make_generator(alg.GeneratorId(1, "-"), 1, 1)
    assert g == same and not g != same
    assert g != other and not g == other
    assert g != "c1+" and not g == "c1+"
    assert alg.SuperMatrix(1, 1) != alg.SuperMatrix(2, 1)
