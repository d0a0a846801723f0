"""Acceptance suite: every binding criterion, one test per criterion, each
printing a pass/fail line with its measured time (run `pytest -s -v` to see
them).  All numeric comparisons are exact; series agreements carry their
stated minimum term counts; each criterion asserts its time budget.
"""

import time
from fractions import Fraction

from omod.formalmod import (bijective_level_structure, connected_height,
                            count_level_structures, kernel_rank,
                            module_from_unit_coefficients, torsion_points)
from omod.lubintate import (CHARACTER_FIXED_TERMS, DETERMINANT_MATCH_TERMS,
                            build_tower, cm_tower, expected_primitive_valuation,
                            verify_character, verify_determinant_character,
                            verify_product_formula, verify_torsion_valuations)
from omod.pi0 import h0_decomposition, pi0_action_table, unit_group
from omod.series import base_field
from omod.tower import FieldTower

from oracle_utils import polygon_versus_towers


def criterion(label, limit_seconds, fn):
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException as exc:
        elapsed = time.perf_counter() - start
        print("criterion %s: FAIL (%.2fs): %s" % (label, elapsed, exc))
        raise
    elapsed = time.perf_counter() - start
    print("criterion %s: PASS (%.2fs) %s" % (label, elapsed, detail or ""))
    assert elapsed < limit_seconds, \
        "criterion %s exceeded its %ds budget (%.2fs)" % (label, limit_seconds, elapsed)


PF = {2: (2, 1), 3: (3, 1), 4: (2, 2), 8: (2, 3), 9: (3, 2)}


def test_criterion_1_component_count():
    # |(o/t^m)^x| = (q-1) q^(m-1) = [F_m : F], each case under a second
    for (q, m) in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2)]:
        def one_case(q=q, m=m):
            p, f = PF[q]
            expected = (q - 1) * q ** (m - 1)
            G = unit_group((p, f), m)
            # degree counting needs no deep series: a small working precision
            lt = build_tower(base_field(p, f, precision=24), m)
            assert G.order == expected, (q, m, G.order)
            assert lt.degree() == expected, (q, m, lt.degree())
            return "q=%d m=%d: order=%d degree=%d" % (q, m, G.order, lt.degree())

        criterion("1[q=%d,m=%d]" % (q, m), 1.0, one_case)


def test_criterion_2_torsion_valuation_formula():
    for (q, n, m) in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        def one_case(q=q, n=n, m=m):
            p, f = PF[q]
            lt = cm_tower(p, f, n, m)
            report = verify_torsion_valuations(lt.torsion(m))
            want = expected_primitive_valuation(q, n, m)
            assert report["primitive_valuation"] == want
            return "q=%d n=%d m=%d: v = %s on %d primitive points" % (
                q, n, m, want, report["per_level"][m])

        criterion("2[q=%d,n=%d,m=%d]" % (q, n, m), 30.0, one_case)


def test_criterion_3_product_formula():
    for (q, n, m) in [(2, 2, 1), (2, 2, 2), (3, 2, 1), (2, 3, 1)]:
        def one_case(q=q, n=n, m=m):
            p, f = PF[q]
            lt = cm_tower(p, f, n, m)
            report = verify_product_formula(lt)
            want_reps = (q ** n - 1) * q ** (n * (m - 1)) \
                // ((q - 1) * q ** (m - 1))
            want_sum = Fraction(1, (q - 1) * q ** (m - 1))
            assert report["rep_count"] == want_reps
            assert report["valuation_sum"] == want_sum
            assert report["ratio_valuation"] == 0
            return "q=%d n=%d m=%d: |R|=%d sum=%s ratio_v=0" % (
                q, n, m, report["rep_count"], report["valuation_sum"])

        criterion("3[q=%d,n=%d,m=%d]" % (q, n, m), 30.0, one_case)


def test_criterion_4_character_law():
    assert CHARACTER_FIXED_TERMS == 40
    for (q, m) in [(3, 1), (3, 2), (2, 2), (2, 3)]:
        def one_case(q=q, m=m):
            p, f = PF[q]
            lt = build_tower(base_field(p, f), m)
            table = verify_character(lt)
            expected = (q - 1) * q ** (m - 1)
            assert len(table.table) == expected
            return "q=%d m=%d: group of order %d verified, base fixed to >= 40 terms" % (
                q, m, expected)

        criterion("4[q=%d,m=%d]" % (q, m), 60.0, one_case)


def test_criterion_5_determinant_norm_compatibility():
    assert DETERMINANT_MATCH_TERMS == 40
    for (q, n, m, cases) in [(2, 2, 2, 12), (3, 2, 1, 8)]:
        def one_case(q=q, n=n, m=m, cases=cases):
            p, f = PF[q]
            witness = verify_determinant_character(cm_tower(p, f, n, m))
            assert len(witness.rows) == cases
            return "q=%d n=%d m=%d: %d/%d norm-compatibility cases" % (
                q, n, m, len(witness.rows), cases)

        criterion("5[q=%d,n=%d,m=%d]" % (q, n, m), 300.0, one_case)


def test_criterion_6_level_structure_count():
    for (n, q, m, want) in [(2, 2, 1, 6), (1, 3, 2, 6), (2, 2, 2, 96)]:
        def one_case(n=n, q=q, m=m, want=want):
            p, f = PF[q]
            lt = cm_tower(p, f, n, m)
            got = count_level_structures(lt.torsion(m))
            assert got == want, (got, want)
            # independent cross-check: |GL_n(o/t^m)| by the closed form
            order = q ** ((m - 1) * n * n)
            for i in range(n):
                order *= q ** n - q ** i
            assert got == order
            return "n=%d q=%d m=%d: %d level structures" % (n, q, m, got)

        criterion("6[n=%d,q=%d,m=%d]" % (n, q, m), 60.0, one_case)


def test_criterion_7_kernel_height_correspondence():
    def one_case():
        F = base_field(2, 1)
        Tm_cm = cm_tower(2, 1, 2, 1).torsion()
        X_cm = Tm_cm.module
        phi_cm = bijective_level_structure(Tm_cm)
        X_mx = module_from_unit_coefficients(F, [1], 2)
        Tm_mx = torsion_points(X_mx, 1, FieldTower(F))
        phi_mx = bijective_level_structure(Tm_mx)
        triples = [
            ("etale", kernel_rank(phi_cm, "generic"),
             connected_height(X_cm, "generic"), 0),
            ("unit-coefficient", kernel_rank(phi_mx, "closed"),
             connected_height(X_mx, "closed"), 1),
            ("closed-fibre", kernel_rank(phi_cm, "closed"),
             connected_height(X_cm, "closed"), 2),
        ]
        for name, rank, height, want in triples:
            assert rank == height == want, (name, rank, height, want)
        return "; ".join("%s: rank=height=%d" % (n, w) for n, _, _, w in triples)

    criterion("7[q=2,n=2,m=1]", 30.0, one_case)


def test_criterion_8_pi0_action_and_h0():
    import random

    for (q, n, m) in [(2, 2, 2), (3, 2, 1)]:
        def one_case(q=q, n=n, m=m):
            p, f = PF[q]
            action = pi0_action_table(p, f, n, m, rng=random.Random(1234),
                                      pair_samples=200)
            rep = action.report
            assert rep["det_pairs"] >= 200
            assert rep["nrd_pairs"] >= 200
            assert rep["nrd_surjective"]
            group, chars, rows = h0_decomposition(p, f, m, group=action.group)
            expected = (q - 1) * q ** (m - 1)
            assert len(rows) == expected
            assert len({tuple(r["omega_on_generators"]) for r in rows}) == expected
            return "q=%d n=%d m=%d: action verified, %d distinct characters" % (
                q, n, m, expected)

        criterion("8[q=%d,n=%d,m=%d]" % (q, n, m), 60.0, one_case)


def test_criterion_9_oracle_suites():
    def one_case():
        constructed, wild, attempts = polygon_versus_towers(seed=97531)
        assert constructed >= 100
        # metamorphic side: the determinant data is invariant under doubling
        # the working precision
        w_lo = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=64))
        w_hi = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=128))
        lo = {a: c for a, _, c in w_lo.rows}
        hi = {a: c for a, _, c in w_hi.rows}
        assert lo == hi
        return "%d constructed samples (%d wild skipped), precision doubling stable" % (
            constructed, wild)

    criterion("9[oracle]", 300.0, one_case)
