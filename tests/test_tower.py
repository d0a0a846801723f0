"""Field towers: extensions, embeddings, automorphisms, additive root finding."""

from fractions import Fraction

import random

import pytest

from omod.additive import AdditivePolynomial
from omod.errors import (ExtensionRequired, InseparablePolynomial,
                         NoConvergence, NotInTower, OmodError, PrecisionExhausted)
from omod.finitefield import GF
from omod.series import base_field, series_keys
from omod import cache, formalmod
from omod.formalmod import module_from_unit_coefficients, torsion_points
from omod.lubintate import build_tower, cm_tower
from omod.tower import (FieldAutomorphism, FieldTower, _residue_roots, additive_roots_in_field,
                        apply_automorphism, embed, ramified_extension,
                        root_uniformizer_image, unramified_extension)

from oracle_utils import int_poly
from tower_reference import (dense_additive_roots, ramified_extension_by_relation,
                             reference_residue_roots)


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
        a, b = int_poly(F, pa), int_poly(F, pb)
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
        assert img.coeff_at(k).code == 1, k
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


def test_short_converged_series_rejected():
    # the relation settles at once, but its image is known modulo u^8 only:
    # a level asked for at precision 16 is not accepted at 8
    F = base_field(2, 1, precision=16)

    def short(field, _current):
        lam = field.uniformizer_elt()
        return (lam ** 2 + lam ** 3).truncate(8)

    with pytest.raises(PrecisionExhausted, match="modulo u\\^8 only"):
        ramified_extension_by_relation(F, 2, short, precision=16)
    _, emb = ramified_extension_by_relation(F, 2, short, precision=8)
    assert emb.image_of_base_uniformizer.precision == 8


def t_in_pi(fld):
    lam = fld.uniformizer_elt()
    return lam ** 2 + lam ** 3


def test_an_exact_image_stays_exact():
    F = base_field(2, 1, precision=16)
    _, emb = ramified_extension(F, 2, t_in_pi, precision=16)
    img = emb.image_of_base_uniformizer
    assert img.is_exact()
    assert img.to_json() == t_in_pi(img.field).to_json()


def test_an_image_known_past_the_precision_is_cut_to_it():
    F = base_field(2, 1, precision=16)
    _, emb = ramified_extension(F, 2, lambda fld: (t_in_pi(fld) + fld.uniformizer_elt(20))
                                .truncate(24), precision=16)
    img = emb.image_of_base_uniformizer
    assert img.precision == 16
    assert img.to_json() == t_in_pi(img.field).truncate(16).to_json()


def test_an_image_known_below_the_precision_is_refused():
    F = base_field(2, 1, precision=16)
    with pytest.raises(PrecisionExhausted,
                       match="^image of the base uniformizer is known modulo u\\^15 only,"
                             " not u\\^16$"):
        ramified_extension(F, 2, lambda fld: t_in_pi(fld).truncate(15), precision=16)


def recorded_images(monkeypatch, module):
    """Every ramified_extension call that module makes, as its arguments and
    the image it accepted."""
    calls = []

    def recording(base, e, image, precision=None, uniformizer=None):
        spec, emb = ramified_extension(base, e, image, precision, uniformizer)
        calls.append(((base, e, image, precision, uniformizer), emb.image_of_base_uniformizer))
        return spec, emb

    monkeypatch.setattr(module, "ramified_extension", recording)
    return calls


def assert_the_solver_gives_the_same_images(calls):
    """Each image the closed-form path accepted is the reference solver's,
    fed the same image as a relation that ignores its current guess."""
    assert calls
    for (base, e, image, precision, uniformizer), got in calls:
        _, emb = ramified_extension_by_relation(base, e, lambda fld, _cur: image(fld),
                                                precision, uniformizer)
        assert got.to_json() == emb.image_of_base_uniformizer.to_json()


@pytest.mark.parametrize("p,f", [(3, 1), (2, 2), (3, 2)])
def test_level_one_image_matches_the_reference_solver(p, f):
    Q = p ** f
    F = base_field(p, f, precision=64)
    lt = build_tower(F, 1)
    got = lt.levels[0][0].embedding.image_of_base_uniformizer
    assert got.is_exact()
    _, emb = ramified_extension_by_relation(F, Q - 1, lt_level1_relation(Q), precision=64,
                                            uniformizer="lam1")
    assert got.to_json() == emb.image_of_base_uniformizer.to_json()


def test_wild_branch_image_matches_the_reference_solver(monkeypatch):
    calls = recorded_images(monkeypatch, formalmod)
    F = base_field(2, 1, precision=64)
    torsion_points(module_from_unit_coefficients(F, [1], 2), 1, FieldTower(F))
    assert [call[0][1] for call in calls] == [2]
    assert_the_solver_gives_the_same_images(calls)


@pytest.mark.parametrize("p,f,n,m", [(3, 1, 1, 3), (2, 1, 2, 2)])
def test_cached_images_match_the_saved_tower_and_the_reference_solver(
        monkeypatch, tmp_path, p, f, n, m):
    lt = cm_tower(p, f, n, m, precision=64)
    cache.save_tower(str(tmp_path), lt, p, f, n)
    calls = recorded_images(monkeypatch, cache)
    loaded = cache.load_tower(str(tmp_path), p, f, n, m, 64)
    saved = [spec.embedding.image_of_base_uniformizer.to_json() for spec in lt.tower.levels]
    assert [got.to_json() for _, got in calls] == saved
    assert [spec.embedding.image_of_base_uniformizer.to_json()
            for spec in loaded.tower.levels] == saved
    assert_the_solver_gives_the_same_images(calls)


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
    x = int_poly(F, {1: 2, 2: 1})
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
    assert apply_automorphism(sigma, sigma.image_of_uniformizer).agrees(lam)
    ident = FieldAutomorphism(F1, F1.uniformizer_elt())
    assert apply_automorphism(ident, t_img).agrees(t_img)


def test_automorphism_group_closure_q3():
    F = base_field(3, 1)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    lam = F1.uniformizer_elt()
    auts = [FieldAutomorphism(F1, lam.scale(GF(3).from_int(a))) for a in (1, 2)]
    comps = [FieldAutomorphism(F1, apply_automorphism(s1, s2.image_of_uniformizer))
             for s1 in auts for s2 in auts]
    keys = series_keys([a.image_of_uniformizer for a in auts + comps])
    assert set(keys[len(auts):]) <= set(keys[:len(auts)])
    t_img = root_uniformizer_image(F1)
    for comp in comps:
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
    assert rho.coeff_at(1).code == 1 and rho.coeff_at(3).code == 1
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
    x0 = int_poly(F, {1: 1, 2: 1})
    rhs = P(x0)
    roots = additive_roots_in_field(P, rhs)
    *keys, key_x0 = series_keys(roots + [x0])
    assert key_x0 in keys
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
    *keys, key_t, key_zero = series_keys(roots + [t, F.zero()])
    assert key_t in keys and key_zero in keys


def _random_element(F, rng, max_order, exact):
    """Nonzero element of order <= max_order with up to four more terms,
    exact or known to 4-29 terms past its order."""
    order = rng.randrange(max_order + 1)
    pairs = {order: rng.randrange(1, F.residue.q)}
    for _ in range(rng.randrange(4)):
        pairs[order + 1 + rng.randrange(6)] = rng.randrange(F.residue.q)
    return int_poly(F, pairs, precision=None if exact else order + rng.randrange(4, 30))


def _search_outcome(search, P, rhs):
    """Roots as (leading exponent, codes, precision, order bound), or the
    exception's type and message, with roots_found and polygon vertices."""
    key = lambda roots: [(r.leading_exponent, r.codes, r.precision, r.order_lower_bound())
                         for r in roots]
    try:
        return ("roots", key(search(P, rhs)))
    except OmodError as exc:
        out = (type(exc), str(exc))
        if isinstance(exc, ExtensionRequired):
            out += (key(exc.roots_found), exc.polygon.vertices)
        return out


@pytest.mark.parametrize("p,f,max_qdegree", [(2, 1, 4), (3, 1, 3), (2, 2, 2), (3, 2, 2)])
def test_additive_search_matches_dense_oracle(p, f, max_qdegree):
    # random F_q-linear P over F_q((t)), q = p^f, solved for P(T) = 0 and
    # P(T) = P(x0).  c_0 and x0 may be inexact; c_1.. are exact, as in every
    # module omod builds (the dense derivative gave its zero terms
    # q^j c_j T^(q^j - 1) the precision of an inexact c_j)
    rng = random.Random(2020 + 10 * p + f)
    seen = set()
    for _ in range(100):
        F = base_field(p, f, precision=rng.choice([24, 40]))
        n = rng.randrange(1, max_qdegree + 1)
        coeffs = [_random_element(F, rng, 3, exact=rng.random() < 0.5)]
        for i in range(1, n + 1):
            middle = i < n and rng.random() < 0.3
            coeffs.append(F.zero() if middle else _random_element(F, rng, 3, exact=True))
        P = AdditivePolynomial(F, tuple(coeffs), f)
        x0 = _random_element(F, rng, 3, exact=rng.random() < 0.5)
        for rhs in (None, P(x0)):
            got = _search_outcome(additive_roots_in_field, P, rhs)
            assert got == _search_outcome(dense_additive_roots, P, rhs), (P, rhs)
            seen.add(got[0])
    assert seen == {"roots", ExtensionRequired}


def test_uncertain_coefficient_below_the_hull_raises_as_the_dense_oracle():
    # P = t^3 T + O(t) T^2 + T^4: O(t) lies below the hull from (1, 3) to (4, 0),
    # which is 2 at T^2
    F = base_field(2, 1, precision=24)
    P = AdditivePolynomial(F, (F.uniformizer_elt(3), F.zero(precision=1), F.one()), 1)
    got = _search_outcome(additive_roots_in_field, P, None)
    assert got == (PrecisionExhausted, "coefficient of T^2 only known modulo u^1, below the hull")
    assert got == _search_outcome(dense_additive_roots, P, None)


def test_newton_root_is_known_to_the_stop_order_past_the_field_precision():
    # over F_2((t)) at precision 24, P = (1 + t^2)T + tT^2 and rhs = P(x0) with
    # x0 known mod t^40: c_0 = 1 + t^2 is inverted as far as each step needs,
    # not to the field's 24 terms, so the root is known mod t^40, not t^27
    F = base_field(2, 1, precision=24)
    P = AdditivePolynomial(F, (int_poly(F, {0: 1, 2: 1}), int_poly(F, {1: 1})), 1)
    x0 = int_poly(F, {0: 1, 3: 1, 5: 1, 17: 1, 33: 1}, precision=40)
    got = _search_outcome(additive_roots_in_field, P, P(x0))
    assert got == ("roots", [(0, x0.codes, 40, 0)])
    assert got == _search_outcome(dense_additive_roots, P, P(x0))


def test_newton_root_runs_until_the_correction_passes_the_stop_order():
    # P = (t + t^2)T + T^4 over F_4((pi)) with t = pi^21: at the residue root
    # pi^7 + O(pi^30) the residual is pi^49, past the stop order 30, but the
    # correction pi^49 / c_0 = pi^28 is not; the roots must agree with the
    # precision-60 roots on every term below pi^30
    roots = {}
    for prec in (30, 60):
        F = base_field(2, 2, precision=prec, uniformizer="pi")
        t = F.uniformizer_elt(21)
        P = AdditivePolynomial(F, (t + t * t, F.one()), 2)
        roots[prec] = additive_roots_in_field(P, None)
        assert _search_outcome(additive_roots_in_field, P, None) == \
            _search_outcome(dense_additive_roots, P, None)
    keys = series_keys(roots[30] + roots[60])
    assert sorted(keys[:4]) == sorted(keys[4:])
    assert all(r.coeff_at(28) == r.coeff_at(7) for r in roots[30])


def test_a_constant_zero_modulo_u_w_gives_a_root_known_below_w():
    # (t^2 + O(t^7))T + (t + t^3)T^2 = t + t^2 + t^3 + O(t^7): the residue root
    # 1 is multiple, and the shifted constant P(1) + c is only O(t^7), so the
    # root 1 is known mod t^(7 - v(c_0)) = t^5, not exactly
    F = base_field(2, 1)
    P = AdditivePolynomial(F, (int_poly(F, {2: 1}, precision=7),
                               int_poly(F, {1: 1, 3: 1})), 1)
    rhs = int_poly(F, {1: 1, 2: 1, 3: 1}, precision=7)
    got = _search_outcome(additive_roots_in_field, P, rhs)
    assert got == ("roots", [(0, b"\x01", 5, 0), (0, b"\x01\x01\x00\x01", 5, 0)])
    assert got == _search_outcome(dense_additive_roots, P, rhs)


def test_field_tower_container():
    F = base_field(3, 1)
    tower = FieldTower(F)
    F1, _ = ramified_extension_by_relation(F, 2, lt_level1_relation(3))
    tower.push(F1)
    assert tower.top is F1
    x = F.uniformizer_elt()
    assert embed(x, tower.top).order() == 2
    with pytest.raises(NotInTower):
        other = base_field(3, 1)
        F1b, _ = ramified_extension_by_relation(other, 2, lt_level1_relation(3))
        tower.push(F1b)


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (5, 1), (3, 2), (2, 4)])
def test_residue_roots_match_the_boxed_evaluation(p, f):
    residue = GF(p, f)
    q, rng = residue.q, random.Random(residue.q)
    elements = list(residue.elements())
    for _ in range(40):
        degrees = rng.sample([1, 2, 3, q, q + 1, q * q, 2 * q - 1], rng.randint(1, 3))
        lead = {d: rng.choice(elements[1:]) for d in degrees}
        assert _residue_roots(residue, lead) == reference_residue_roots(residue, lead)
    # a^q = a on F_q: every nonzero element is a root of c a - c a^q
    c = elements[-1]
    assert _residue_roots(residue, {1: c, q: -c}) == elements[1:]
