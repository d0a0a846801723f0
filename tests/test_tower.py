"""Field towers: extensions, embeddings, automorphisms, additive root finding."""

from fractions import Fraction

import pytest

from omod.additive import AdditivePolynomial
from omod.errors import (ExtensionRequired, InseparablePolynomial,
                         NoConvergence, NotInTower)
from omod.finitefield import GF
from omod.series import base_field
from omod.tower import (FieldAutomorphism, FieldTower, additive_roots_in_field,
                        apply_automorphism, embed, ramified_extension_by_relation,
                        root_uniformizer_image, unramified_extension)


def lt_level1_relation(Q):
    """t = -lambda^(Q-1), from t*lambda + lambda^Q = 0 with lambda != 0."""

    def relation(field, _current):
        return -(field.uniformizer_elt() ** (Q - 1))

    return relation


def test_unramified_extension_basics():
    F = base_field(2, 1)
    F4 = unramified_extension(F, 2)
    assert F4.residue.q == 4
    assert F4.ramification_index == 1 and F4.residue_degree == 2
    t_img = embed(F.uniformizer_elt(), F4)
    assert t_img.order() == 1 and t_img.valuation() == 1
    # k = 1 is the identity up to relabeling
    F_same = unramified_extension(F, 1)
    assert F_same.residue.q == 2
    assert F_same.degree_over(F) == 1


def test_unramified_embedding_is_homomorphism():
    F = base_field(3, 1)
    F9 = unramified_extension(F, 2)
    rng_pairs = [({0: 1, 1: 2}, {1: 1, 2: 2}), ({0: 2}, {0: 1, 3: 1})]
    for pa, pb in rng_pairs:
        a, b = F.from_int_poly(pa), F.from_int_poly(pb)
        assert embed(a * b, F9).agrees(embed(a, F9) * embed(b, F9))
        assert embed(a + b, F9).agrees(embed(a, F9) + embed(b, F9))
    assert embed(F.one(), F9).agrees(F9.one())


def test_ramified_extension_closed_form_q3():
    # q = 3, m = 1: t = 2 lambda^2 exactly
    F = base_field(3, 1)
    F1, emb = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    img = emb.image_of_base_uniformizer
    assert img.is_exact()
    assert img.order() == 2
    assert img.leading_coeff() == GF(3).from_int(2)
    assert embed(F.uniformizer_elt(), F1).agrees(img)
    # valuation scaling: v(embed(t^2)) = 4 with e = 2
    assert embed(F.uniformizer_elt(2), F1).order() == 4


def test_ramified_extension_fixed_point_q2_level2():
    # q = 2 tower step: solve lam1 = lam1*lam2 + lam2^2 for lam1 as a series
    # in lam2, with t = lam1; expect lam2^2 + lam2^3 + lam2^4 + ...
    F = base_field(2, 1, precision=48)

    def relation(field, current):
        lam2 = field.uniformizer_elt()
        return current * lam2 + lam2 ** 2

    F2, emb = ramified_extension_by_relation(F, 2, relation, precision=48)
    img = emb.image_of_base_uniformizer
    for k in range(2, 48):
        assert img.coeff_at(k).to_int() == 1, k
    # back-substitution residual beyond requested precision
    residual = relation(F2, img) - img
    assert residual.order_lower_bound() >= 48


def test_identity_relation_extension():
    F = base_field(2, 1)

    def relation(field, _current):
        return field.uniformizer_elt()

    F1, emb = ramified_extension_by_relation(F, 1, relation)
    assert emb.image_of_base_uniformizer.order() == 1
    assert F1.degree_over(F) == 1


def test_non_contracting_relation_rejected():
    F = base_field(2, 1, precision=16)

    def bad(field, current):
        # flips the lam^3 term on and off: corrections stop gaining valuation
        lam = field.uniformizer_elt()
        has_cube = (not current.is_zero_mod_precision()
                    and not current.coeff_at(3).is_zero())
        return lam ** 2 if has_cube else lam ** 2 + lam ** 3

    with pytest.raises(NoConvergence):
        ramified_extension_by_relation(F, 2, bad, precision=16)


def test_embed_transitivity():
    F = base_field(3, 1)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))

    def step(field, current):
        lam2 = field.uniformizer_elt()
        t_here = embed(F.uniformizer_elt(), field.base)  # t in F1, then re-express
        # lam1 = t*lam2 + lam2^3 with t's series re-evaluated at the unknown image
        from omod.series import substitute
        t_img = substitute(t_here, current) if not current.is_zero_mod_precision() \
            else field.zero(precision=field.default_precision)
        return t_img * lam2 + lam2 ** 3

    F2, _ = ramified_extension_by_relation(F1, 3, step)
    x = F.from_int_poly({1: 2, 2: 1})
    one_step = embed(x, F2)
    two_step = embed(embed(x, F1), F2)
    assert one_step.agrees(two_step)
    assert one_step.order() == 6 * 1  # e_total = 6 times order 1
    with pytest.raises(NotInTower):
        embed(F2.one(), F)  # wrong direction


def test_automorphism_q3_level1():
    # sigma: lambda -> 2 lambda fixes t = 2 lambda^2 and has order 2
    F = base_field(3, 1)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    lam = F1.uniformizer_elt()
    sigma = FieldAutomorphism(F1, lam.scale(GF(3).from_int(2)))
    t_img = root_uniformizer_image(F1)
    assert apply_automorphism(sigma, t_img).agrees(t_img, min_terms=20)
    assert apply_automorphism(sigma, t_img).agrees(t_img)
    # composition: sigma o sigma = identity
    square = sigma.compose(sigma)
    assert square.image_of_uniformizer.agrees(lam)
    ident = FieldAutomorphism(F1, F1.uniformizer_elt(), 0)
    assert apply_automorphism(ident, t_img).agrees(t_img)


def test_automorphism_group_closure_q3():
    F = base_field(3, 1)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    lam = F1.uniformizer_elt()
    auts = [FieldAutomorphism(F1, lam.scale(GF(3).from_int(a))) for a in (1, 2)]
    keys = {a.image_of_uniformizer.series_key() for a in auts}
    t_img = root_uniformizer_image(F1)
    for s1 in auts:
        for s2 in auts:
            comp = s1.compose(s2)
            assert comp.image_of_uniformizer.series_key() in keys
            assert apply_automorphism(comp, t_img).agrees(t_img, min_terms=20)


def test_additive_roots_mixed_slopes_in_field():
    # P = tT + T^2 + T^4 over F_2((t)): in-field roots are 0 and the
    # valuation-1 root t + t^3 + ...; the two valuation-0 roots generate a
    # wildly ramified quadratic extension, reported via ExtensionRequired.
    F = base_field(2, 1, precision=60)
    t = F.uniformizer_elt()
    P = AdditivePolynomial(F, (t, F.one(), F.one()), 1)  # c_0=t, c_1=1 (T^2), c_2=1 (T^4)
    with pytest.raises(ExtensionRequired) as exc_info:
        additive_roots_in_field(P, None)
    found = exc_info.value.roots_found
    assert len(found) == 2
    by_order = sorted(found, key=lambda r: 99 if not r.coeffs else r.order())
    rho = by_order[0]
    assert rho.order() == 1
    # rho = t + t^3 + t^5 + ... satisfies P(rho) = 0 to >= 40 terms
    assert P(rho).order_lower_bound() >= 40
    assert rho.coeff_at(1).to_int() == 1 and rho.coeff_at(3).to_int() == 1
    # the polygon carried by the error shows the fractional leftover slope
    slopes = [s.slope for s in exc_info.value.polygon.segments]
    assert Fraction(-1, 2) in slopes


def test_additive_roots_wild_quadratic_contains_etale_points():
    # Build L = F_2((pi)) with t = pi^2 + pi^3; then all four roots of
    # tT + T^2 + T^4 lie in L: {0, rho, 1 + pi, 1 + pi + rho}.
    F = base_field(2, 1, precision=60)

    def relation(field, _current):
        pi = field.uniformizer_elt()
        return pi ** 2 + pi ** 3

    L, _ = ramified_extension_by_relation(F, 2, relation, precision=60)
    tL = root_uniformizer_image(L)
    P = AdditivePolynomial(L, (tL, L.one(), L.one()), 1)
    roots = additive_roots_in_field(P, None)
    assert len(roots) == 4
    vals = sorted([r.valuation() for r in roots if r.coeffs])
    assert vals == [Fraction(0), Fraction(0), Fraction(1)]
    for r in roots:
        assert P(r).order_lower_bound() >= 40
    # the two valuation-0 roots reduce to 1 and differ by the valuation-1 root
    zero_val = [r for r in roots if r.coeffs and r.order() == 0]
    diff = zero_val[0] - zero_val[1]
    assert diff.valuation() == Fraction(1)


def test_additive_roots_constructed_instance():
    # rhs = P(x0) always has x0 among its solutions
    F = base_field(2, 1, precision=48)
    t = F.uniformizer_elt()
    P = AdditivePolynomial(F, (t, F.one()), 1)  # tT + T^2
    x0 = F.from_int_poly({1: 1, 2: 1})
    rhs = P(x0)
    roots = additive_roots_in_field(P, rhs)
    keys = {r.series_key() for r in roots}
    assert x0.series_key() in keys
    for r in roots:
        assert (P(r) - rhs).is_zero_mod_precision() or \
            (P(r) - rhs).order_lower_bound() >= 40


def test_inseparable_rejected():
    F = base_field(2, 1)
    P = AdditivePolynomial(F, (F.zero(), F.one()), 1)
    with pytest.raises(InseparablePolynomial):
        additive_roots_in_field(P, None)


def test_root_completeness_count_matches_polygon():
    # tT + T^2 over F_2((t)): both roots (0 and t) live in the base field
    F = base_field(2, 1, precision=48)
    t = F.uniformizer_elt()
    P = AdditivePolynomial(F, (t, F.one()), 1)
    roots = additive_roots_in_field(P, None)
    assert len(roots) == 2
    keys = {r.series_key() for r in roots}
    assert t.series_key() in keys
    assert F.zero().series_key() in keys


def test_field_tower_container():
    F = base_field(3, 1)
    tower = FieldTower(F)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    tower.push(F1)
    assert tower.degree() == 2
    assert tower.top is F1
    x = F.uniformizer_elt()
    assert tower.embed_to_top(x).order() == 2
    with pytest.raises(NotInTower):
        other = base_field(3, 1)
        F1b, _ = ramified_extension_by_relation(other, 2, lt_level1_relation(3))
        tower.push(F1b)
