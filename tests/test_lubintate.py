"""Torsion towers, the torsion character, valuation/product identities, and
the norm compatibility of the determinant action."""

from fractions import Fraction
import gc
import json
import weakref

import pytest

from omod.errors import PrecisionExhausted, StructureViolation
from omod.formalmod import torsion_points
from omod.lubintate import (build_tower, character_restriction_consistent,
                            cm_tower, locate_base_torsion_chain,
                            orbit_representatives, verify_character,
                            verify_determinant_character, verify_product_formula,
                            verify_torsion_valuations)
from omod.quotring import OModElement, OModRing
from omod.series import base_field
from omod.tower import apply_automorphism, root_uniformizer_image


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


def test_torsion_levels_run_from_one_to_the_top():
    lt = build_tower(base_field(3, 1), 2)
    assert [lt.torsion(m).level for m in (1, 2)] == [1, 2]
    assert lt.torsion().level == 2
    for m in (0, 3):
        with pytest.raises(ValueError, match="outside 1..2"):
            lt.torsion(m)
    with pytest.raises(ValueError, match="levels start at 1"):
        torsion_points(lt.module, 0, lt.tower)


def test_level_series_serialize_unchanged_q4_m2():
    # the level series and one torsion substitution of the q = 4, m = 2 tower,
    # as serialized before coefficients were stored as codes
    lt = build_tower(base_field(2, 2, precision=64), 2, 64)
    dumps = lambda x: json.dumps(x.to_json(), separators=(",", ":"))
    level1, level2 = (spec.embedding.image_of_base_uniformizer for spec in lt.tower.levels)
    assert dumps(level1) == '{"leading_exponent":3,"coeffs":[[1,0]],"precision":null}'
    assert dumps(level2) == (
        '{"leading_exponent":4,"coeffs":[[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],'
        '[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],'
        '[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],'
        '[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[1,0]],'
        '"precision":64}')
    R = lt.unit_ring()
    sigma = lt.torsion_automorphism(R.element([R.residue.gen(), R.residue.one()]))
    assert dumps(sigma.image_of_uniformizer) == (
        '{"leading_exponent":1,"coeffs":[[0,1],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],'
        '[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],'
        '[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],'
        '[0,0],[0,0],[0,0],[0,0],[0,0],[1,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],[0,0],'
        '[0,0],[1,0]],"precision":73}')


def test_cm_tower_below_the_ramification_index_is_a_precision_error():
    # the level-2 relative ramification index of the q = 4, n = 2 tower is 16,
    # so at precision 16 the base uniformizer's image is zero modulo u^16
    with pytest.raises(PrecisionExhausted, match=r"u\^16.*ramification index 16"):
        cm_tower(2, 2, 2, 2, 16)


def test_tower_uniformizer_relation_residual():
    # substituting the stored series back into [t](lam_k) = lam_{k-1}
    lt = build_tower(base_field(2, 1), 2, precision=48)
    lam2 = lt.lam(2)
    lam1 = lt.lam(1)  # embedded into the top
    residual = lt.iterates(2)[1] - lam1    # [t](lam_2) - lam_1
    assert residual.is_zero_mod_precision() or residual.order_lower_bound() >= 40


@pytest.mark.parametrize("q_p,q_f,n,m", [(2, 1, 1, 1), (2, 1, 1, 4), (3, 1, 1, 2),
                                         (2, 1, 2, 2)])
def test_t_image_is_the_embedded_t_of_the_iterates(q_p, q_f, n, m):
    # t is embedded once per tower, and it is the chain's embedding of the
    # root uniformizer term for term
    lt = cm_tower(q_p, q_f, n, m, precision=64)
    t_img = lt.t_image()
    assert lt.t_image() is t_img is lt.module.embedded_t_action(lt.top).coeffs[0]
    assert t_img.field is lt.top
    assert t_img.to_json() == root_uniformizer_image(lt.top).to_json()


def test_character_q3_m1():
    lt = build_tower(base_field(3, 1), 1)
    table = verify_character(lt)
    assert len(table.table) == 2
    ring = lt.unit_ring(1)
    sigma = table.table[OModElement(ring, 2).codes][1]
    # sigma: lam -> 2 lam; fixed field check already ran inside
    assert sigma.image_of_uniformizer.leading_coeff().code == 2


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
    assert (g * g).codes == bytes([1, 0, 1])
    assert g * g * g * g == ring.one()
    sigma = table.table[g.codes][1]
    square = apply_automorphism(sigma, sigma.image_of_uniformizer)    # sigma o sigma
    assert square.agrees(table.table[(g * g).codes][1].image_of_uniformizer, min_terms=32)
    assert character_restriction_consistent(lt)


def test_torsion_automorphisms_are_shared(monkeypatch):
    # one [t]-iterate list per level and one automorphism per unit and tower:
    # the character check and the restriction check together form the
    # iterates of lam_2 and of lam_1 once each
    import omod.lubintate as lubintate_mod

    formed = []
    real = lubintate_mod.t_iterates

    def counting(X, x, count):
        formed.append(count)
        return real(X, x, count)

    monkeypatch.setattr(lubintate_mod, "t_iterates", counting)
    lt = build_tower(base_field(3, 1), 2)
    table = verify_character(lt)
    assert character_restriction_consistent(lt)
    units = list(lt.unit_ring().units())
    assert len(units) == 6
    for a in units:
        assert lt.torsion_automorphism(a) is lt.torsion_automorphism(a) is table.table[a.codes][1]
    assert character_restriction_consistent(lt)
    assert sorted(formed) == [1, 2]


def test_a_failed_torsion_build_is_raised_again_without_a_rebuild(monkeypatch):
    import omod.lubintate as lubintate_mod

    calls = []

    def failing(X, m, tower, lam):
        calls.append(m)
        raise StructureViolation("torsion points are not pairwise distinct: 3 keys for 9 points")

    monkeypatch.setattr(lubintate_mod, "orbit_torsion_from_generator", failing)
    lt = build_tower(base_field(3, 1), 2)
    for _ in range(3):
        with pytest.raises(StructureViolation, match="^torsion points are not pairwise"
                           " distinct: 3 keys for 9 points$"):
            lt.torsion()
    assert calls == [2]


def test_power_tables_are_freed_with_their_images():
    # power tables refer to no element or field, and an extension refers to
    # its embedding but not back, so dropping the tower frees its fields,
    # automorphism images and tables by reference counting alone, without
    # the cycle collector
    gc.disable()
    try:
        lt = build_tower(base_field(3, 1), 2)
        table = verify_character(lt)
        assert character_restriction_consistent(lt)
        images = [sigma.image_of_uniformizer for _, sigma in table.table.values()]
        assert all("_powers" in vars(image) for image in images)
        refs = [weakref.ref(x) for x in images + [lt, lt.top, lt.top.embedding]]
        del lt, table, images
        assert [r for r in refs if r() is not None] == []
    finally:
        gc.enable()


def test_character_violation_detected():
    # a corrupted table entry (wrong substitution) must be caught by the
    # composition check, exercised here by monkeypatching the multiplication
    lt = build_tower(base_field(3, 1), 1)
    table = verify_character(lt)
    ring = lt.unit_ring(1)
    sigma = table.table[OModElement(ring, 2).codes][1]
    lam = lt.top.uniformizer_elt()
    bad_image = sigma.image_of_uniformizer + lt.t_image()
    from omod.tower import FieldAutomorphism

    bad = FieldAutomorphism(lt.top, bad_image)
    t_img = lt.t_image()
    moved = apply_automorphism(bad, t_img)
    assert not moved.agrees(t_img, min_terms=20)


def test_torsion_valuations_q2_n2_m1():
    lt = cm_tower(2, 1, 2, 1)
    report = verify_torsion_valuations(lt.torsion(1))
    assert report["primitive_valuation"] == Fraction(1, 3)
    assert report["per_level"] == {1: 3}


def test_torsion_valuations_q2_n2_m2():
    lt = cm_tower(2, 1, 2, 2)
    report = verify_torsion_valuations(lt.torsion(2))
    assert report["primitive_valuation"] == Fraction(1, 12)
    assert report["per_level"] == {1: 3, 2: 12}


def test_torsion_valuations_q3_n2_m1():
    lt = cm_tower(3, 1, 2, 1)
    report = verify_torsion_valuations(lt.torsion(1))
    assert report["primitive_valuation"] == Fraction(1, 8)
    assert report["per_level"] == {1: 8}


def test_orbit_representatives_counts():
    # |R| = (q^n - 1) q^(n(m-1)) / ((q-1) q^(m-1))
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 1), 2)) == 3
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 2), 2)) == 6
    assert len(orbit_representatives(OModRing(base_field(3, 1).residue, 1), 2)) == 4
    assert len(orbit_representatives(OModRing(base_field(2, 1).residue, 1), 3)) == 7


def test_product_formula_q2_n2_m1():
    report = verify_product_formula(cm_tower(2, 1, 2, 1))
    assert report["rep_count"] == 3
    assert report["valuation_sum"] == Fraction(1)
    assert report["ratio_valuation"] == 0


def test_product_formula_q3_n1_m1():
    # height-one self-consistency: one representative, v = 1/2 = v(lam_1)
    report = verify_product_formula(build_tower(base_field(3, 1), 1))
    assert report["rep_count"] == 1
    assert report["valuation_sum"] == Fraction(1, 2)
    assert report["ratio_valuation"] == 0


def test_product_formula_q2_n2_m2():
    report = verify_product_formula(cm_tower(2, 1, 2, 2))
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
    assert lt.base_chain() == chain


def test_product_and_determinant_share_one_base_chain_search(monkeypatch):
    import omod.lubintate as lubintate_mod

    calls = []

    def counting(field, m):
        calls.append(m)
        return locate_base_torsion_chain(field, m)

    monkeypatch.setattr(lubintate_mod, "locate_base_torsion_chain", counting)
    lt = cm_tower(2, 1, 2, 2)
    verify_product_formula(lt)
    verify_determinant_character(lt)
    assert calls == [2]
    assert lt.base_chain() is lt.base_chain()


def test_a_failed_base_chain_search_is_raised_again_without_a_repeat(monkeypatch):
    import omod.lubintate as lubintate_mod

    calls = []

    def failing(field, m):
        calls.append(m)
        raise PrecisionExhausted("only 1 of 2 polygon-predicted roots lie in the field")

    monkeypatch.setattr(lubintate_mod, "locate_base_torsion_chain", failing)
    lt = cm_tower(2, 1, 2, 1)
    for check in (verify_product_formula, verify_determinant_character, verify_product_formula):
        with pytest.raises(PrecisionExhausted, match="^only 1 of 2 polygon-predicted roots"
                           " lie in the field$"):
            check(lt)
    assert calls == [1]


def test_determinant_character_q2_n2_m1_trivial_norms():
    # (o'/t)^x = F_4^x: N(a) = a^3 = 1 for every a; all substitutions fix mu
    witness = verify_determinant_character(cm_tower(2, 1, 2, 1))
    assert len(witness.rows) == 3
    for a, norm, matched in witness.rows:
        assert norm.codes == matched.codes == bytes([1])


def test_determinant_character_q3_n2_m1():
    # (o'/t)^x = F_9^x has 8 units; N(a) = a^4 in F_3
    witness = verify_determinant_character(cm_tower(3, 1, 2, 1))
    assert len(witness.rows) == 8
    norms = sorted(tuple(norm.codes) for _, norm, _ in witness.rows)
    # a^4 for a in F_9^x: the four elements of order dividing 2 in F_3^x... each
    # base unit hit four times
    assert norms.count((1,)) == 4 and norms.count((2,)) == 4


def test_determinant_character_q2_n2_m2():
    # 12 units of o'/t^2; exhaustive norm compatibility
    witness = verify_determinant_character(cm_tower(2, 1, 2, 2))
    assert len(witness.rows) == 12
    # the decoded character values must cover (o/t^2)^x = {1, 1+t}
    matched = {tuple(c.codes) for _, _, c in witness.rows}
    assert matched == {(1, 0), (1, 1)}


def test_determinant_precision_metamorphic():
    # recomputing at a higher precision agrees with the lower-precision run
    w64 = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=64))
    w96 = verify_determinant_character(cm_tower(2, 1, 2, 2, precision=96))
    low = {a: c for a, _, c in w64.rows}
    high = {a: c for a, _, c in w96.rows}
    assert low == high
