"""Formal o-modules: multiplication, heights, torsion, level structures."""

from fractions import Fraction
import itertools
import random
from types import SimpleNamespace

import pytest

from omod.errors import CapExceeded, NotASummand, StructureViolation
from omod.finitefield import GF
from omod.formalmod import (LevelStructure, TorsionModule, _assemble_from_basis,
                            bijective_level_structure, coord_key, connected_height,
                            count_level_structures, kernel_rank,
                            act, lubin_tate_module, module_from_unit_coefficients,
                            t_iterates, torsion_points)
from omod.lubintate import cm_tower
from omod.quotring import OModElement, OModRing
from omod.series import base_field
from omod.tower import FieldTower, unramified_extension

from formalmod_reference import (multiply_by, omodule_structure_check,
                                 verify_level_structure, zero_level_structure)
from oracle_utils import int_poly
from quotring_reference import brute_force_level_count, reference_kernel_rank


def cm_module(q_p, q_f, n, precision=64):
    """Height-n model t*T + T^(q^n) over the degree-n unramified enlargement."""
    F = base_field(q_p, q_f, precision=precision)
    Fp = unramified_extension(F, n)
    return lubin_tate_module(Fp, n)


def test_multiply_by_identity_and_t():
    # the composed-polynomial oracle and the [t]-iterate action agree on [1]
    # and [t]
    F = base_field(2, 1)
    X = lubin_tate_module(F, 1)  # tT + T^2
    R1 = OModRing(F.residue, 1)
    one = multiply_by(R1.one(), X)
    assert one.qdegree == 0
    x = int_poly(F, {0: 1, 1: 1})
    assert one(x).agrees(x)
    assert act(R1.one(), t_iterates(X, x, 1)).agrees(x)
    t = OModRing(F.residue, 2).element([F.residue.zero(), F.residue.one()])
    t_mult = multiply_by(t, X)
    assert t_mult(x).agrees(X.t_action(x))
    assert act(t, t_iterates(X, x, 2)).agrees(X.t_action(x))


def test_multiply_by_t_squared_composition():
    # q=2, n=1: [t^2](T) = t^2 T + (t + t^2) T^2 + T^4
    F = base_field(2, 1)
    X = lubin_tate_module(F, 1)
    R3 = OModRing(F.residue, 3)
    t2 = R3.element([F.residue.zero(), F.residue.zero(), F.residue.one()])
    P = multiply_by(t2, X)
    assert P.coeffs[0].agrees(int_poly(F, {2: 1}))          # t^2
    assert P.coeffs[1].agrees(int_poly(F, {1: 1, 2: 1}))    # t + t^2
    assert P.coeffs[2].agrees(F.one())
    # additivity on 20 random pairs, and the iterate action on each point
    rng = random.Random(7)
    for _ in range(20):
        x = int_poly(F, {k: rng.randrange(2) for k in range(1, 9)}, precision=32)
        y = int_poly(F, {k: rng.randrange(2) for k in range(1, 9)}, precision=32)
        assert P(x + y).agrees(P(x) + P(y))
        assert act(t2, t_iterates(X, x, 3)) == P(x)


def test_ring_action_law_exhaustive_small():
    # [a][b] = [ab] (product computed without truncation) and [a]+[b] = [a+b]
    # for all a, b in o/t^2, q = 2, on general field elements, by the
    # [t]-iterate action
    F = base_field(2, 1)
    X = lubin_tate_module(F, 1)
    R = OModRing(F.residue, 2)
    R4 = OModRing(F.residue, 4)
    samples = [int_poly(F, {1: 1, 3: 1}, precision=24),
               int_poly(F, {2: 1}, precision=24)]
    for a in R.elements():
        for b in R.elements():
            for x in samples:
                its = t_iterates(X, x, 4)
                bx = act(b, its)
                assert act(a, t_iterates(X, bx, 2)).agrees(
                    act(R4.element(a.coeffs) * R4.element(b.coeffs), its))
                assert (act(a, its) + act(b, its)).agrees(act(a + b, its))


def test_act_needs_an_iterate_per_nonzero_coefficient():
    F = base_field(2, 1)
    X = lubin_tate_module(F, 1)
    R = OModRing(F.residue, 3)
    x = int_poly(F, {1: 1})
    assert act(R.one(), [x]) == x     # only a_0 is nonzero
    t = R.element([F.residue.zero(), F.residue.one()])
    with pytest.raises(ValueError, match="3 \\[t\\]-iterates, got 2"):
        act(t * t, t_iterates(X, x, 2))


def test_ring_action_truncated_law_on_torsion():
    # with the product truncated mod t^m, the law holds on t^m-torsion points
    Tm = cm_tower(2, 1, 2, 2).torsion()
    X, R = Tm.module, Tm.ring
    pts = [Tm.points[k] for k in sorted(Tm.points)][:4]

    def on(a, pt):
        return act(a, t_iterates(X, pt, R.m))

    for a in R.elements():
        for b in R.elements():
            for pt in pts:
                left = on(a, on(b, pt))
                right = on(a * b, pt)
                assert left.agrees(right) or \
                    (left - right).order_lower_bound() >= 40


def test_connected_heights():
    # CM point: closed fibre fully connected (h = n); u1-unit: h = 1;
    # generic fibre: etale (h = 0)
    X_cm = cm_module(2, 1, 2)
    assert connected_height(X_cm, fibre="closed") == 2
    assert connected_height(X_cm, fibre="generic") == 0
    F = base_field(2, 1)
    X_mixed = module_from_unit_coefficients(F, [1], 2)  # tT + T^2 + T^4
    assert connected_height(X_mixed, fibre="closed") == 1
    assert connected_height(X_mixed, fibre="generic") == 0
    X_h1 = lubin_tate_module(base_field(3, 1), 1)
    assert connected_height(X_h1, fibre="closed") == 1


def test_torsion_points_sends_the_orbit_model_to_its_tower():
    # the orbit model's torsion has one construction: its tower's table
    X = cm_module(2, 1, 2)
    for m in (1, 2):
        with pytest.raises(ValueError, match=r"build_tower\(\.\.\.\)\.torsion\(%d\)$" % m):
            torsion_points(X, m)


def test_cm_torsion_q2_n2_m1():
    # 4 points: {0} + three roots of T^3 = t, each of valuation 1/3
    Tm = cm_tower(2, 1, 2, 1).torsion()
    assert len(Tm.points) == 4
    vals = sorted(pt.valuation() for pt in Tm.points.values()
                  if pt.is_known_nonzero())
    assert vals == [Fraction(1, 3)] * 3
    report = omodule_structure_check(Tm)
    assert report["cardinality"] == 4 and report["rank"] == 2
    # verify each point is killed by [t]
    P = Tm.module.embedded_t_action(Tm.field)
    for pt in Tm.points.values():
        assert P(pt).order_lower_bound() >= 40 or P(pt).is_zero_mod_precision()


def test_cm_torsion_q2_n2_m2_counts_and_valuations():
    Tm = cm_tower(2, 1, 2, 2).torsion()
    assert len(Tm.points) == 16
    prim = [pt for pt in Tm.points.values()
            if pt.is_known_nonzero() and pt.valuation() == Fraction(1, 12)]
    assert len(prim) == 12
    lower = [pt for pt in Tm.points.values()
             if pt.is_known_nonzero() and pt.valuation() == Fraction(1, 3)]
    assert len(lower) == 3


def test_mixed_torsion_u1_unit():
    # tT + T^2 + T^4 at level 1: {0, a valuation-1 point, two valuation-0
    # points}, the latter pair living in a wild quadratic extension
    F = base_field(2, 1, precision=64)
    X = module_from_unit_coefficients(F, [1], 2)
    tower = FieldTower(F)
    Tm = torsion_points(X, 1, tower)
    assert len(Tm.points) == 4
    vals = sorted(pt.valuation() for pt in Tm.points.values() if pt.is_known_nonzero())
    assert vals == [Fraction(0), Fraction(0), Fraction(1)]
    assert Tm.field.absolute_ramification == 2
    omodule_structure_check(Tm)


def test_structure_check_negative_control():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    corrupted = dict(Tm.points)
    keys = sorted(corrupted)
    # shift one nonzero point by the embedded uniformizer: no longer torsion,
    # so additivity against the coordinates must break
    from omod.tower import root_uniformizer_image

    k_bad = next(k for k in keys if corrupted[k].is_known_nonzero())
    corrupted[k_bad] = corrupted[k_bad] + root_uniformizer_image(Tm.field)
    bad = TorsionModule(Tm.module, 1, Tm.ring, Tm.field, Tm.basis, corrupted, Tm.coords)
    with pytest.raises(StructureViolation):
        omodule_structure_check(bad)


def test_torsion_points_that_differ_only_past_the_known_window_collide():
    # level-1 points over F_4((t)) from the basis b1 = t^e + O(t^30) and
    # b2 = t^3 + O(t^20): every point is known below t^20, so b1 = t^19
    # separates 0 from b1 while b1 = t^20 does not
    X = cm_module(2, 1, 2)
    F = X.field
    b2 = int_poly(F, {3: 1}, precision=20)
    b1 = int_poly(F, {19: 1}, precision=30)
    assert len(_assemble_from_basis(X, 1, FieldTower(F), [b1, b2]).points) == 4
    b1 = int_poly(F, {20: 1}, precision=30)
    with pytest.raises(StructureViolation, match="2 keys for 4 points"):
        _assemble_from_basis(X, 1, FieldTower(F), [b1, b2])


def test_level_structure_product_equals_t_action():
    # bijective phi on CM q=2, n=2, m=1: prod (T - phi(a)) = T^4 + tT exactly
    Tm = cm_tower(2, 1, 2, 1).torsion()
    phi = bijective_level_structure(Tm)
    assert verify_level_structure(phi)


def test_level_structure_product_at_level2():
    # the level-1 restriction of a bijective level-2 structure also multiplies
    # out to the [t]-polynomial exactly
    Tm = cm_tower(2, 1, 2, 2).torsion()
    phi = bijective_level_structure(Tm)
    assert verify_level_structure(phi)


def test_level_structure_zero_map_closed_fibre():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    phi0 = zero_level_structure(Tm)
    assert verify_level_structure(phi0, fibre="closed")
    # on the generic fibre the zero map fails
    assert not verify_level_structure(phi0)


def test_level_structure_non_injective_fails():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    ring = Tm.ring
    # send both basis vectors to the same point
    matrix = [[ring.one(), ring.one()], [ring.zero(), ring.zero()]]
    phi = LevelStructure(Tm, matrix)
    assert not verify_level_structure(phi)


def test_count_level_structures_gl2_f2():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    assert count_level_structures(Tm) == 6  # |GL_2(F_2)|


def test_count_level_structures_height1_m2():
    # n=1, q=3, m=2: |GL_1(o/t^2)| = |(o/t^2)^x| = 6
    Tm = cm_tower(3, 1, 1, 2).torsion()
    assert count_level_structures(Tm) == 6


@pytest.mark.parametrize("q_pf,n,m", [((2, 1), 2, 1), ((2, 1), 1, 2), ((3, 1), 2, 1),
                                      ((2, 1), 3, 1), ((2, 1), 2, 2)])
def test_count_level_structures_matches_brute_force(q_pf, n, m):
    Tm = cm_tower(*q_pf, n, m).torsion(m)
    assert count_level_structures(Tm) == brute_force_level_count(Tm)


def test_count_level_structures_rejects_non_bijective_coordinates():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    key = sorted(Tm.coords)[1]
    Tm.coords[key] = Tm.coords[sorted(Tm.coords)[2]]
    with pytest.raises(StructureViolation):
        count_level_structures(Tm)


def test_kernel_rank_three_specializations():
    # etale judgment: kernel 0; u1-unit closed: rank 1; CM closed: rank 2 = n
    Tm = cm_tower(2, 1, 2, 1).torsion()
    phi = bijective_level_structure(Tm)
    assert kernel_rank(phi, reduction="generic") == 0
    assert kernel_rank(phi, reduction="closed") == 2
    F = base_field(2, 1)
    X_mixed = module_from_unit_coefficients(F, [1], 2)
    Tm_mixed = torsion_points(X_mixed, 1, FieldTower(F))
    phi_mixed = bijective_level_structure(Tm_mixed)
    assert kernel_rank(phi_mixed, reduction="closed") == 1
    assert kernel_rank(phi_mixed, reduction="generic") == 0


def test_kernel_height_correspondence():
    # the assertable identity: kernel rank equals connected height
    F = base_field(2, 1)
    cases = []
    Tm_cm = cm_tower(2, 1, 2, 1).torsion()
    cases.append((Tm_cm.module, Tm_cm, "closed"))
    X_mx = module_from_unit_coefficients(F, [1], 2)
    cases.append((X_mx, torsion_points(X_mx, 1, FieldTower(F)), "closed"))
    cases.append((Tm_cm.module, Tm_cm, "generic"))
    for X, Tm, fibre in cases:
        phi = bijective_level_structure(Tm)
        assert kernel_rank(phi, reduction=fibre) == connected_height(X, fibre=fibre)


def test_degree_cap_enforced():
    F = base_field(2, 1)
    with pytest.raises(CapExceeded):
        lubin_tate_module(unramified_extension(F, 13), 13)


def test_torsion_export_shapes():
    Tm = cm_tower(2, 1, 2, 1).torsion()
    doc = Tm.to_json()
    assert doc["cardinality"] == 4
    assert len(doc["points"]) == 4


class _StubPoint:
    def __init__(self, dies):
        self.dies = dies

    def order_lower_bound(self):
        return 1 if self.dies else 0

    def is_zero_mod_precision(self):
        return self.dies


class _StubLevelStructure:
    """Everything kernel_rank reads of a level structure on (o/t^m)^n:
    coordinate vectors keyed by coord_key, and images that vanish exactly on
    `kernel`."""

    def __init__(self, ring, n, kernel):
        vectors = itertools.product(ring.elements(), repeat=n)
        self.torsion = SimpleNamespace(ring=ring, rank=n,
                                       coords={coord_key(v): v for v in vectors})
        self.kernel = {coord_key(v) for v in kernel}

    def image_of(self, vector):
        return _StubPoint(coord_key(vector) in self.kernel)


def _span(ring, n, gens):
    span = {(ring.zero(),) * n}
    for g in gens:
        span = {tuple(a + c * x for a, x in zip(s, g)) for s in span for c in ring.elements()}
    return span


def _rank_or_error(rank, phi):
    try:
        return rank(phi)
    except NotASummand as exc:
        return str(exc)


@pytest.mark.parametrize("q_pf,n,m", [((2, 1), 2, 1), ((2, 1), 3, 1), ((3, 1), 2, 1),
                                      ((2, 2), 2, 1), ((2, 1), 2, 2), ((2, 1), 1, 3),
                                      ((2, 1), 3, 2)])
def test_kernel_rank_matches_combination_search(q_pf, n, m):
    # random spans (free summands or not) and random subsets of size q^(mh)
    ring = OModRing(GF(*q_pf), m)
    vectors = list(itertools.product(ring.elements(), repeat=n))
    rng = random.Random("%r %d %d" % (q_pf, n, m))
    outcomes = []
    for trial in range(16):
        h = rng.randrange(n + 1)
        if trial % 2:
            kernel = rng.sample(vectors, ring.size ** h)
        else:
            kernel = _span(ring, n, [rng.choice(vectors) for _ in range(h)])
        phi = _StubLevelStructure(ring, n, kernel)
        outcome = _rank_or_error(kernel_rank, phi)
        assert outcome == _rank_or_error(reference_kernel_rank, phi)
        outcomes.append(outcome)
    assert any(isinstance(o, int) and o > 0 for o in outcomes)
    assert any(isinstance(o, str) for o in outcomes)


def test_kernel_rank_rejects_a_kernel_that_is_not_free():
    # t (o/t^2)^2 has q^(m*1) = 4 elements but no vector with a unit entry
    ring = OModRing(GF(2), 2)
    t = ring.element([ring.residue.zero(), ring.residue.one()])
    kernel = [(t * a, t * b) for a in ring.elements() for b in ring.elements()]
    assert len({coord_key(v) for v in kernel}) == 4
    phi = _StubLevelStructure(ring, 2, kernel)
    with pytest.raises(NotASummand, match="^kernel admits no generating set of 1 unit rows$"):
        kernel_rank(phi)


def test_kernel_rank_rejects_a_size_that_is_not_a_power():
    ring = OModRing(GF(2), 2)
    kernel = [(ring.zero(), ring.zero()), (ring.one(), ring.zero())]
    phi = _StubLevelStructure(ring, 2, kernel)
    with pytest.raises(NotASummand, match=r"^kernel has 2 elements, not a power q\^\(mh\)$"):
        kernel_rank(phi)


def test_kernel_rank_walk_skips_residues_already_spanned():
    # (0,0,2) follows (0,0,1) and adds nothing mod t; the walk must pass over
    # it to (1,1,1), whose span with (0,0,1) leaves this 9-element kernel
    ring = OModRing(GF(3), 1)
    kernel = [tuple(OModElement(ring, d) for d in v) for v in
              [(0, 0, 0), (0, 0, 1), (0, 0, 2), (1, 1, 1), (1, 1, 2), (1, 2, 0),
               (2, 0, 0), (2, 1, 1), (2, 2, 2)]]
    phi = _StubLevelStructure(ring, 3, kernel)
    with pytest.raises(NotASummand, match="^kernel admits no generating set of 2 unit rows$"):
        kernel_rank(phi)
    with pytest.raises(NotASummand, match="^kernel admits no generating set of 2 unit rows$"):
        reference_kernel_rank(phi)
