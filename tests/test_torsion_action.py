"""The [t]-iterate action [a](x) = sum_j a_j [t]^j(x), the torsion tables built
from it, the character composition law checked on unit-group generators, and
the restriction and determinant rows derived from those generators, each
against the oracle it replaced: the composed [a]-polynomial, the pairwise
composition loop and the per-unit loops in formalmod_reference."""

import itertools

import pytest

from omod.errors import CharacterViolation, DeterminantMismatch
from omod.formalmod import act, module_from_unit_coefficients, t_iterates, torsion_points
from omod.lubintate import (CharacterTable, build_tower, character_restriction_consistent,
                            cm_tower, verify_character, verify_determinant_character)
from omod.pi0 import unit_group
from omod.quotring import OModElement, OModRing
from omod.series import base_field
from omod.tower import FieldTower

from formalmod_reference import (composed_orbit_basis, composed_torsion_points,
                                 determinant_per_unit, multiply_by, pairwise_composition_law,
                                 restriction_per_unit)


def exact(x):
    return x.leading_exponent, x.codes, x.precision


# (p, f, n, m, precision): q = p^f in {2, 3, 4, 5}, n in {1, 2}, m <= 4
ACTION_CONFIGS = [(2, 1, 1, 1, 64), (2, 1, 1, 4, 64), (2, 1, 2, 4, 64), (3, 1, 1, 4, 64),
                  (3, 1, 2, 2, 64), (2, 2, 1, 3, 64), (2, 2, 2, 2, 64), (5, 1, 1, 3, 64),
                  (5, 1, 2, 1, 64), (2, 1, 1, 8, 512)]


@pytest.mark.parametrize("p,f,n,m,precision", ACTION_CONFIGS)
def test_iterate_action_matches_the_composed_polynomial(p, f, n, m, precision):
    # every a of o'/t^m, units and non-units, acting on lam_m as torsion
    # automorphisms do
    lt = cm_tower(p, f, n, m, precision)
    lam, iterates = lt.lam(m), lt.iterates(m)
    for a in lt.unit_ring().elements():
        assert exact(act(a, iterates)) == \
            exact(multiply_by(a, lt.module, target=lt.top)(lam)), a


@pytest.mark.parametrize("p,f,n,m", [(2, 1, 2, 2), (3, 1, 1, 2), (2, 2, 2, 1)])
def test_torsion_module_action_matches_the_composed_polynomial(p, f, n, m):
    # on every point of the table, whose precisions differ from lam_m's
    Tm = cm_tower(p, f, n, m).torsion()
    for a in Tm.ring.elements():
        P = multiply_by(a, Tm.module, target=Tm.field)
        for pt in Tm.points.values():
            assert exact(act(a, t_iterates(Tm.module, pt, m))) == exact(P(pt))


@pytest.mark.parametrize("p,f,n,m", [(2, 1, 1, 4), (2, 1, 2, 3), (3, 1, 1, 3),
                                     (3, 1, 2, 1), (2, 2, 1, 2), (2, 2, 2, 2), (5, 1, 1, 2)])
def test_span_torsion_table_matches_the_composed_table(p, f, n, m):
    lt = cm_tower(p, f, n, m)
    Tm = lt.torsion()
    basis = composed_orbit_basis(lt.module, m, lt.top, lt.lam(m))
    assert list(map(exact, Tm.basis)) == list(map(exact, basis))
    oracle = composed_torsion_points(lt.module, m, lt.top, basis)
    assert sorted(Tm.points) == sorted(oracle)
    assert all(exact(Tm.points[k]) == exact(oracle[k]) for k in oracle)


def test_mixed_level1_table_matches_the_composed_table():
    # tT + T^2 + T^4: a basis found by root search, one of its points in a
    # wild quadratic extension
    F = base_field(2, 1, precision=64)
    X = module_from_unit_coefficients(F, [1], 2)
    Tm = torsion_points(X, 1, FieldTower(F))
    oracle = composed_torsion_points(X, 1, Tm.field, Tm.basis)
    assert sorted(Tm.points) == sorted(oracle)
    assert all(exact(Tm.points[k]) == exact(oracle[k]) for k in oracle)


# every (p, f, m, precision) height-one tower whose character the tier-1 suite
# verifies, directly or through `omod verify`, and the benchmark's q = 4 tower
CHARACTER_TOWERS = [(2, 1, 1, 64), (2, 1, 2, 64), (2, 1, 3, 64), (3, 1, 1, 64),
                    (3, 1, 2, 48), (3, 1, 2, 64), (2, 2, 2, 64)]


@pytest.mark.parametrize("p,f,m,precision", CHARACTER_TOWERS)
def test_pairwise_oracle_agrees_with_the_generator_check(p, f, m, precision):
    table = verify_character(build_tower(base_field(p, f, precision=precision), m, precision))
    pairwise_composition_law(table)


def test_swapped_substitutions_fail_both_checks(monkeypatch):
    # (o/t^2)^x over F_3 is cyclic of order 6, whose only nontrivial
    # automorphism, negation, moves four elements: so swapping any two sigma
    # breaks the composition law, and both checks must say so
    lt = build_tower(base_field(3, 1), 2)
    table = verify_character(lt)
    units = list(lt.unit_ring().units())
    for a, b in itertools.combinations(units, 2):
        swap = {a.codes: table.table[b.codes][1], b.codes: table.table[a.codes][1]}
        swapped = CharacterTable({k: (u, swap.get(k, sigma))
                                  for k, (u, sigma) in table.table.items()})
        with pytest.raises(CharacterViolation, match="composition law fails"):
            pairwise_composition_law(swapped)
        monkeypatch.setattr(lt, "torsion_automorphism", lambda u: swapped.table[u.codes][1])
        with pytest.raises(CharacterViolation, match="composition law fails"):
            verify_character(lt)


def codes(rows):
    return [(a.codes, norm.codes, c.codes) for a, norm, c in rows]


@pytest.mark.parametrize("p,f,n,m,precision", [(p, f, 1, m, precision)
                                               for p, f, m, precision in CHARACTER_TOWERS]
                         + [(2, 1, 2, 1, 64), (3, 1, 2, 1, 64), (2, 1, 2, 2, 64)])
def test_per_unit_oracles_agree_with_the_derived_rows(p, f, n, m, precision):
    # height one after verify_character recorded the law, as `omod verify`
    # runs them; the CM towers of height 2 check the law themselves
    lt = cm_tower(p, f, n, m, precision)
    if n == 1:
        verify_character(lt)
    assert character_restriction_consistent(lt) is restriction_per_unit(lt) is True
    rows = verify_determinant_character(lt).rows
    assert len(rows) == len(list(lt.unit_ring().units()))
    assert codes(rows) == codes(determinant_per_unit(lt))


def unit_generators(lt):
    """unit_group's generators at the tower's top level, without the law
    check that LubinTateTower.composition_law would run and record."""
    ring = lt.unit_ring()
    return [g for g, _ in unit_group((ring.residue.p, ring.residue.f), lt.m_max).generators]


def corrupt_one_non_generator(monkeypatch, lt, differs):
    """Give sigma_a the image of sigma_b, for the first unit a other than 1
    outside the generators and the first unit b with differs(a, b)."""
    ring = lt.unit_ring()
    gens = unit_generators(lt)
    a = next(u for u in ring.units() if u not in gens and u != ring.one())
    b = next(u for u in ring.units() if differs(a, u))
    real = lt.torsion_automorphism
    monkeypatch.setattr(lt, "torsion_automorphism", lambda u: real(b if u == a else u))


def test_a_corrupted_non_generator_fails_the_derived_restriction_and_its_oracle(monkeypatch):
    lt = build_tower(base_field(3, 1), 2)
    corrupt_one_non_generator(monkeypatch, lt, lambda a, b: a.reduce_to(1) != b.reduce_to(1))
    assert not restriction_per_unit(lt)
    with pytest.raises(CharacterViolation, match="composition law fails"):
        character_restriction_consistent(lt)


def test_a_corrupted_non_generator_fails_the_derived_determinant_and_its_oracle(monkeypatch):
    lt = cm_tower(2, 1, 2, 2)
    root = lt.base.root.residue
    corrupt_one_non_generator(monkeypatch, lt, lambda a, b: a.norm_to(root) != b.norm_to(root))
    with pytest.raises(DeterminantMismatch, match="moves mu by"):
        determinant_per_unit(lt)
    with pytest.raises(CharacterViolation, match="composition law fails"):
        verify_determinant_character(lt)


@pytest.mark.parametrize("generator,derived_error", [(True, "moves mu by"),
                                                     (False, r"N\(.*\) = .*, but N\(")])
def test_a_wrong_norm_entry_fails_the_derived_determinant_and_its_oracle(
        monkeypatch, generator, derived_error):
    lt = cm_tower(2, 1, 2, 2)
    root = lt.base.root.residue
    ring = lt.unit_ring()
    gens = unit_generators(lt)
    a = next(u for u in ring.units() if (u in gens) == generator and u != ring.one())
    real = OModElement.norm_to
    wrong = next(c for c in OModRing(root, 2).units() if c != real(a, root))
    monkeypatch.setattr(OModElement, "norm_to",
                        lambda self, sub: wrong if self == a else real(self, sub))
    with pytest.raises(DeterminantMismatch, match="moves mu by"):
        determinant_per_unit(lt)
    with pytest.raises(DeterminantMismatch, match=derived_error):
        verify_determinant_character(lt)
