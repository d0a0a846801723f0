"""Torsion towers, the torsion character, valuation/product identities, and
the norm compatibility of the determinant action."""

from fractions import Fraction

from omod.lubintate import (build_tower, character_restriction_consistent,
                            cm_tower, locate_base_torsion_chain,
                            orbit_representatives, verify_character,
                            verify_determinant_character, verify_product_formula,
                            verify_torsion_valuations)
from omod.quotring import OModRing
from omod.series import base_field
from omod.tower import apply_automorphism


def test_tower_degrees_q3():
    lt = build_tower(base_field(3, 1), 2)
    assert lt.degree(1) == 2
    assert lt.degree(2) == 6
    assert lt.levels[0][0].degree_over(lt.base) == 2


def test_tower_degree_q2_level1_trivial():
    lt = build_tower(base_field(2, 1), 1)
    assert lt.degree() == 1
    assert lt.top is lt.base


def test_tower_degrees_q2_m3():
    lt = build_tower(base_field(2, 1), 3)
    assert lt.degree() == 4
    assert [lvl[0].degree_over(lt.base) for lvl in lt.levels] == [1, 2, 4]


def test_tower_uniformizer_relation_residual():
    # substituting the stored series back into [t](lam_k) = lam_{k-1}
    lt = build_tower(base_field(2, 1), 2, precision=48)
    lam2 = lt.lam(2)
    lam1 = lt.lam(1)  # embedded into the top
    residual = lt.multiplication(lt.unit_ring(2).t())(lam2) - lam1
    assert residual.is_zero_mod_precision() or residual.order_lower_bound() >= 40


def test_character_q3_m1():
    lt = build_tower(base_field(3, 1), 1)
    table = verify_character(lt)
    assert len(table.table) == 2
    ring = lt.unit_ring(1)
    two = ring.from_int_digits(2)
    sigma = table.sigma(two)
    # sigma: lam -> 2 lam; fixed field check already ran inside
    assert sigma.image_of_uniformizer.leading_coeff().to_int() == 2


def test_character_q3_m2_order6():
    lt = build_tower(base_field(3, 1), 2)
    table = verify_character(lt)
    assert len(table.table) == 6
    assert character_restriction_consistent(lt)


def test_character_q2_m3_cyclic_of_order4():
    lt = build_tower(base_field(2, 1), 3)
    table = verify_character(lt)
    assert len(table.table) == 4
    ring = lt.unit_ring(3)
    g = ring.element([ring.residue.one(), ring.residue.one()])  # 1 + t
    # 1 + t generates: its square is 1 + t^2 != 1, its fourth power is 1
    assert (g * g).lex_key() == (1, 0, 1)
    assert (g ** 4).lex_key() == ring.one().lex_key()
    sigma = table.sigma(g)
    sq = sigma.compose(sigma)
    lam = lt.top.uniformizer_elt()
    assert sq.image_of_uniformizer.agrees(
        table.sigma(g * g).image_of_uniformizer, min_terms=32)
    assert character_restriction_consistent(lt)


def test_character_violation_detected():
    # a corrupted table entry (wrong substitution) must be caught by the
    # composition check, exercised here by monkeypatching the multiplication
    lt = build_tower(base_field(3, 1), 1)
    table = verify_character(lt)
    ring = lt.unit_ring(1)
    two = ring.from_int_digits(2)
    sigma = table.sigma(two)
    lam = lt.top.uniformizer_elt()
    bad_image = sigma.image_of_uniformizer + lt.t_image()
    from omod.tower import FieldAutomorphism

    bad = FieldAutomorphism(lt.top, bad_image)
    t_img = lt.t_image()
    moved = apply_automorphism(bad, t_img)
    assert not moved.agrees(t_img, min_terms=20)


def test_torsion_valuations_q2_n2_m1():
    lt = cm_tower(2, 1, 2, 1)
    X = lt.module
    report = verify_torsion_valuations(X, 1)
    assert report["primitive_valuation"] == Fraction(1, 3)
    assert report["per_level"] == {1: 3}


def test_torsion_valuations_q2_n2_m2():
    lt = cm_tower(2, 1, 2, 2)
    report = verify_torsion_valuations(lt.module, 2)
    assert report["primitive_valuation"] == Fraction(1, 12)
    assert report["per_level"] == {1: 3, 2: 12}


def test_torsion_valuations_q3_n2_m1():
    lt = cm_tower(3, 1, 2, 1)
    report = verify_torsion_valuations(lt.module, 1)
    assert report["primitive_valuation"] == Fraction(1, 8)
    assert report["per_level"] == {1: 8}


def test_orbit_representatives_counts():
    # |R| = (q^n - 1) q^(n(m-1)) / ((q-1) q^(m-1))
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 1), 2)) == 3
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 2), 2)) == 6
    assert len(orbit_representatives(OModRing(base_field(3, 1).residue, 1), 2)) == 4
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 1), 3)) == 7


def test_product_formula_q2_n2_m1():
    lt = cm_tower(2, 1, 2, 1)
    report = verify_product_formula(lt.module, 1)
    assert report["rep_count"] == 3
    assert report["valuation_sum"] == Fraction(1)
    assert report["ratio_valuation"] == 0


def test_product_formula_q3_n1_m1():
    # height-one self-consistency: one representative, v = 1/2 = v(lam_1)
    F = base_field(3, 1)
    lt = build_tower(F, 1)
    from omod.formalmod import lubin_tate_module

    X = lubin_tate_module(F, 1)
    report = verify_product_formula(X, 1)
    assert report["rep_count"] == 1
    assert report["valuation_sum"] == Fraction(1, 2)
    assert report["ratio_valuation"] == 0


def test_product_formula_q2_n2_m2():
    lt = cm_tower(2, 1, 2, 2)
    report = verify_product_formula(lt.module, 2)
    assert report["rep_count"] == 6
    assert report["valuation_sum"] == Fraction(1, 2)
    assert report["uniformizer_valuation"] == Fraction(1, 2)
    assert report["ratio_valuation"] == 0


def test_locate_base_torsion_q2_n2_m1():
    # base-model 1-torsion inside the CM level-1 field: mu_1 = t (q = 2)
    lt = cm_tower(2, 1, 2, 1)
    chain = locate_base_torsion_chain(lt.top, 1)
    assert len(chain) == 1
    assert chain[0].valuation() == Fraction(1)


def test_determinant_character_q2_n2_m1_trivial_norms():
    # (o'/t)^x = F_4^x: N(a) = a^3 = 1 for every a; all substitutions fix mu
    witness = verify_determinant_character(cm_tower(2, 1, 2, 1))
    assert len(witness.rows) == 3
    one_key = (1,)
    for a, norm, matched in witness.rows:
        assert norm.lex_key() == one_key
        assert matched.lex_key() == one_key


def test_determinant_character_q3_n2_m1():
    # (o'/t)^x = F_9^x has 8 units; N(a) = a^4 in F_3
    witness = verify_determinant_character(cm_tower(3, 1, 2, 1))
    assert len(witness.rows) == 8
    norms = sorted(tuple(map(int, norm.lex_key())) for _, norm, _ in witness.rows)
    # a^4 for a in F_9^x: the four elements of order dividing 2 in F_3^x... each
    # base unit hit four times
    assert norms.count((1,)) == 4 and norms.count((2,)) == 4


def test_determinant_character_q2_n2_m2():
    # 12 units of o'/t^2; exhaustive norm compatibility
    witness = verify_determinant_character(cm_tower(2, 1, 2, 2))
    assert len(witness.rows) == 12
    # the decoded character values must cover (o/t^2)^x = {1, 1+t}
    matched = {tuple(map(int, c.lex_key())) for _, _, c in witness.rows}
    assert matched == {(1, 0), (1, 1)}


def test_determinant_precision_metamorphic():
    # recomputing at a higher precision agrees with the lower-precision run
    w64 = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=64))
    w96 = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=96))
    low = {tuple(map(int, a.lex_key())): tuple(map(int, c.lex_key()))
           for a, _, c in w64.rows}
    high = {tuple(map(int, a.lex_key())): tuple(map(int, c.lex_key()))
            for a, _, c in w96.rows}
    assert low == high
