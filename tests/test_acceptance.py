"""Acceptance suite: one test per criterion, exact (zero-tolerance) throughout.

Every check is an equality of exact integers/rationals; there are no numeric
tolerances anywhere.  Each test prints one PASS/FAIL line.
"""

import math
import time
from fractions import Fraction

from parafock import algebra as alg
from parafock import patterns as gz
from parafock import reduced as rm
from parafock import symfunc as sf
from parafock import verma as vm

DOMAINS = [(1, 1), (2, 1), (1, 2), (2, 2)]
ORACLE_RUNS = [(1, 1, 1, 4), (1, 1, 2, 4), (2, 1, 1, 3)]


def _report(num: int, desc: str, ok: bool, started: float):
    status = "PASS" if ok else "FAIL"
    print(f"CRITERION {num:2d}: {status} ({time.time() - started:5.1f}s) {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_triple_relations():
    t0 = time.time()
    ok = True
    for m, n in DOMAINS:
        rep = alg.verify_relations(m, n)[0]
        ok &= rep["failures"] == [] and rep["checked"] == 8 * (m + n) ** 3
    _report(1, "defining triple relations hold exactly in the realization",
            ok, t0)


def test_criterion_02_subalgebra_claims():
    t0 = time.time()
    ok = True
    for m, n in DOMAINS:
        try:
            basis = alg.structure_constants(m, n)  # raises on dependence
        except ArithmeticError:
            ok = False
            continue
        ok &= basis.dimension == alg.expected_dimension(m, n)
        ok &= len(basis.diagonal_subalgebra_labels()) == (m + n) ** 2
        ok &= basis.diagonal_subalgebra_closed()
    _report(2, "mixed-sign pair brackets independent and closed; "
               "dimensions match the root counts", ok, t0)


def test_criterion_03_schur_expansion():
    t0 = time.time()
    ok = True
    for m in (0, 1, 2):
        for n in (0, 1, 2):
            if m + n == 0:
                continue
            prod = sf.weight_series_product(m, n, 6)
            series = sf.verma_character(m, n, 6)
            ok &= prod == series
    _report(3, "weight-series product equals the hook Schur sum to degree 6",
            ok, t0)


def test_criterion_04_character_formula():
    t0 = time.time()
    ok = True
    for m, n in DOMAINS:
        for p in (1, 2, 3):
            rep = sf.character_formula_report(m, n, p, 6)
            ok &= rep["series_equal"] and not rep["lr_identity_failures"]
    _report(4, "closed character formula and its coefficient identity "
               "hold to degree 6 for p in {1,2,3}", ok, t0)


def test_criterion_05_oracle_character_agreement():
    t0 = time.time()
    ok = True
    for m, n, p, lmax in ORACLE_RUNS:
        dims = {rec.weight: rec.rank
                for rec in vm.gram_records_up_to(m, n, p, lmax)}
        expected = {gz.doubled_weight(e, m, n, p): c for e, c in
                    sf.irreducible_character(m, n, p, lmax).items()}
        ok &= {w: r for w, r in dims.items() if r} == expected
    _report(5, "Gram ranks equal irreducible character multiplicities",
            ok, t0)


def test_criterion_06_order_one_degeneration():
    t0 = time.time()
    ok = True
    for m in (0, 1, 2):
        for n in (0, 1, 2):
            if m + n == 0:
                continue
            ch = sf.irreducible_character(m, n, 1, 5)
            totals = [0] * 6
            for e, c in ch.items():
                totals[sum(e)] += c
            for d in range(6):
                if n == 0:
                    expect = math.comb(m, d)
                else:
                    expect = sum(
                        math.comb(m, f) * math.comb(d - f + n - 1, n - 1)
                        for f in range(0, min(m, d) + 1))
                ok &= totals[d] == expect
            ok &= all(c <= 1 for c in ch.values())
    _report(6, "order 1 collapses to the ordinary fermion-boson Fock space",
            ok, t0)


def test_criterion_07_recurrence_identity():
    t0 = time.time()
    recurrence_domains = [(m, n) for m, n in DOMAINS if n >= 1]
    try:
        rep = rm.select_parsing_variant_multi(recurrence_domains, [1, 2, 3], 4)
        unique = len(rep["survivors"]) == 1
    except rm.VariantSelectionError:
        unique = False
        rep = None
    vacuum_ok = all(
        rm.reduced_me_squared((0,) * (m + n), 1, p, m, n) == p
        for m, n in DOMAINS for p in (1, 2, 3))
    ok = unique and vacuum_ok and rep["selected"] == rm.DEFAULT_VARIANT
    _report(7, "exactly one closed-form reading has vanishing recurrence "
               "residuals; vacuum value is p", ok, t0)


def test_criterion_08_cut_property():
    t0 = time.time()
    ok = True
    for m, n in DOMAINS:
        for p in (1, 2, 3):
            top = [0] * (m + n)
            top[0] = p
            ok &= rm.reduced_me_squared(tuple(top), 1, p, m, n) == 0
    for m, n, p, lmax in ORACLE_RUNS:
        rep = vm.radical_cut_check(
            m, n, p, lmax, list(vm.gram_records_up_to(m, n, p, lmax)))
        ok &= rep["ok"]
    _report(8, "first slot vanishes exactly at width p and the Gram radical "
               "removes exactly the wide patterns", ok, t0)


def test_criterion_09_diagonal_action():
    t0 = time.time()
    rep = vm.diagonal_check(1, 1, 2, 3,
                            list(vm.gram_records_up_to(1, 1, 2, 3)))
    _report(9, "diagonal anticommutator values match the pattern labels",
            rep["ok"], t0)


def test_criterion_10_positivity():
    t0 = time.time()
    ok = True
    for m, n, p, lmax in ORACLE_RUNS:
        for blk in vm.gram_blocks_up_to(m, n, p, lmax):
            ok &= blk.psd and all(minor > 0 for minor in blk.minors)
    _report(10, "every Gram block in the oracle range is positive "
                "semidefinite", ok, t0)


def test_criterion_11_slot_one_against_gram_norms():
    t0 = time.time()
    ok = True
    for m, n in [(1, 1), (2, 1), (1, 2), (2, 2), (0, 2), (3, 0)]:
        eng = vm.get_engine(m, n)
        pairs = (0,) * len(vm.pair_slots(m, n))
        for p in (1, 2, 3):
            norms = []
            for level in range(5):
                power = vm.PBWMonomial((level,) + (0,) * (m + n - 1), pairs)
                norms.append(eng.pair_poly(power, power).evaluate(p))
            for level in range(4):
                lower, upper = norms[level], norms[level + 1]
                if lower:
                    top = (level,) + (0,) * (m + n - 1)
                    ok &= Fraction(upper, lower) == rm.reduced_me_squared(
                        top, 1, p, m, n)
                else:
                    ok &= upper == 0
    _report(11, "G_1 squared equals the Gram norm ratio of successive powers "
                "of the first creation generator", ok, t0)
