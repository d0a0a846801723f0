"""Unit groups, determinant, reduced norm, the component action, characters."""

import hashlib
import itertools
import json
import math
import os
import random

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from omod import pi0, quotring
from omod.errors import FrobeniusInvarianceViolation, NotAUnit, NotInvertible, StructureViolation
from omod.finitefield import FIXED_MODULI, GF, RESIDUE_CARDINALITY_CAP, _is_prime, _prime_factors
from omod.pi0 import (DivisionOrder, _generator_basis, _gl_sample, _matrix_mul, _norm,
                      _order_mul, _reduced_norm, _unit_sample, all_characters,
                      expected_invariant_factors, h0_decomposition, matrix_determinant,
                      pi0_action_table, reduced_norm, unit_group)
from omod.quotring import OModElement, OModRing, _determinant, _mul_codes, _WideTables

from quotring_reference import (_partition_from_counts, leibniz_determinant,
                                reference_element_order, reference_generator_basis,
                                reference_gl_sample, reference_matrix_mul, reference_order_mul,
                                reference_pi0_action_table, reference_reduced_norm,
                                reference_unit_sample)


def unit_group_json(group):
    """The unit group's document in tests/golden/pi0_codes.json."""
    return {
        "q": group.ring.residue.q, "m": group.ring.m, "order": group.order,
        "invariant_factors": list(group.invariant_factors),
        "generators": [list(g.codes) for g, _ in group.generators],
        "elements": [list(e.codes) for e in group.elements],
    }


def pi0_action_json(action):
    """The action of the generator set on components, in lexicographic
    element order: the document whose SHA-256 tests/golden/pi0_codes.json
    pins."""
    doc = {"group": unit_group_json(action.group), "generator_actions": []}
    for idx, g in enumerate(action.gl_gens):
        doc["generator_actions"].append({
            "kind": "gl", "index": idx,
            "matrix": [[list(entry.codes) for entry in row] for row in g],
            "table": [[list(src), list(dst)] for src, dst in action.component_table(g=g)],
        })
    for a in action.order.big.units():
        doc["generator_actions"].append({
            "kind": "order-scalar",
            "scalar": list(a.codes),
            "table": [[list(src), list(dst)]
                      for src, dst in action.component_table(b=action.order.scalar(a))],
        })
    return doc


def generator_dlog(group):
    """Element codes -> exponents over the group's generators, spanned one
    generator after another in exponent-tuple order (the key order of
    reference_generator_basis's table)."""
    span = [((), group.ring.one())]
    for g, d in group.generators:
        grown = []
        for exps, x in span:
            for e in range(d):
                grown.append((exps + (e,), x))
                x = x * g
        span = grown
    return {x.codes: exps for exps, x in span}


def encodings(residue, n, m):
    """The order of height n over o/t^m over `residue`, with each ring on its
    own code tables, and the same order with both rings forced onto tables
    filled on first lookup (_WideTables, which a ring of at most 256
    elements does not get otherwise): the code_tables cached property is
    set on that order's two ring instances.  Both have the same codes."""
    def order():
        return DivisionOrder(n, OModRing(GF(residue.p, residue.f * n), m), residue)

    forced = order()
    for ring in (forced.ring, forced.big):
        ring.__dict__["code_tables"] = _WideTables(ring.residue, ring.m)
    return [order(), forced]


def codes(elements):
    """The integer codes of elements of o/t^m or o'/t^m."""
    return tuple(x.code for x in elements)


def boxed(ring, rows):
    """A matrix of codes of `ring` as coefficient tuples."""
    return tuple(tuple(OModElement(ring, x).coeffs for x in row) for row in rows)


def pi(order):
    """The uniformizer Pi of the order."""
    return order.element([order.big.zero(), order.big.one()])


def test_unit_group_q2_m3_cyclic4():
    G = unit_group((2, 1), 3)
    assert G.order == 4
    assert G.invariant_factors == [4]
    g, d = G.generators[0]
    assert d == 4
    assert g.codes == bytes([1, 1, 0])  # 1 + t generates


def test_unit_group_q3_m1():
    G = unit_group((3, 1), 1)
    assert G.order == 2
    assert G.invariant_factors == [2]


def test_unit_group_q4_m2():
    # (q-1) q^(m-1) = 3 * 4 = 12; 1-units form (Z/2)^2, so factors [6, 2]
    G = unit_group((2, 2), 2)
    assert G.order == 12
    assert G.invariant_factors == [6, 2]


def test_unit_group_q3_m2():
    G = unit_group((3, 1), 2)
    assert G.order == 6
    assert G.invariant_factors == [6]


def test_unit_group_trivial():
    G = unit_group((2, 1), 1)
    assert G.order == 1
    assert G.invariant_factors == []
    assert len(all_characters(G)) == 1


def test_determinant_examples():
    R = OModRing(GF(2), 2)
    one, zero, t = R.one(), R.zero(), R.element([R.residue.zero(), R.residue.one()])
    ident = ((one, zero), (zero, one))
    assert matrix_determinant(ident, R) == one
    u = R.element([R.residue.one(), R.residue.one()])  # 1 + t
    diag = ((u, zero), (zero, one))
    assert matrix_determinant(diag, R) == u
    # [[1, t], [1, 1]]: det = 1 - t = 1 + t over o/t^2 in characteristic 2
    g = ((one, t), (one, one))
    assert matrix_determinant(g, R).codes == bytes([1, 1])
    with pytest.raises(NotInvertible):
        matrix_determinant(((t, zero), (zero, one)), R)


def test_det_multiplicative_random():
    for order in encodings(GF(2), 2, 2):
        rng, R = random.Random(11), order.ring
        tables = R.code_tables
        for _ in range(200):
            a, det_a = _gl_sample(order, rng)
            b, det_b = _gl_sample(order, rng)
            product = _matrix_mul(tables, a, b)
            assert boxed(R, product) == reference_matrix_mul(boxed(R, a), boxed(R, b))
            assert _determinant(tables, product) == tables.mul_rows[det_a][det_b]


def assert_matches_leibniz(g, ring):
    """The unit-pivot elimination, on the ring's own tables and on tables
    filled on first lookup, against the Leibniz sum."""
    want = leibniz_determinant([[x.coeffs for x in row] for row in g])
    wide = _WideTables(ring.residue, ring.m)
    on_wide = [[x.code for x in row] for row in g]
    # the determinant mod t is the determinant of the residue matrix
    if want[0].is_zero():
        with pytest.raises(NotInvertible):
            matrix_determinant(g, ring)
        assert _determinant(wide, on_wide) is None
    else:
        assert matrix_determinant(g, ring).coeffs == want
        det = _determinant(wide, on_wide)
        assert OModElement(ring, det).coeffs == want


def test_determinant_matches_leibniz_on_every_2x2_over_o_mod_t2():
    R = OModRing(GF(2), 2)
    elements = list(R.elements())
    for entries in itertools.product(elements, repeat=4):
        assert_matches_leibniz((entries[:2], entries[2:]), R)


@pytest.mark.parametrize("m", [1, 2])
def test_determinant_matches_leibniz_on_every_1x1_and_2x2_over_gf3(m):
    # -1 != 1 in GF(3), so a sign slip in a*d - b*c shows here and not over GF(2)
    R = OModRing(GF(3), m)
    elements = list(R.elements())
    for a in elements:
        assert_matches_leibniz(((a,),), R)
    for entries in itertools.product(elements, repeat=4):
        assert_matches_leibniz((entries[:2], entries[2:]), R)


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(st.tuples(st.sampled_from([(2, 1), (3, 1), (2, 2), (5, 1)]), st.integers(1, 3)),
                 # more than 256 elements: tables filled on first lookup; (3, 1)
                 # shows a swap's sign
                 st.sampled_from([((2, 1), 9), ((3, 1), 6), ((2, 2), 5)])),
       st.integers(3, 4), st.data())
def test_determinant_matches_leibniz_sampled(case, n, data):
    pf, m = case
    R = OModRing(GF(*pf), m)
    # residues drawn from {0, 1}, so singular reductions are common
    digits = st.tuples(st.integers(0, 1), st.integers(0, R.size // R.residue.q - 1))
    g = tuple(tuple(OModElement(R, low + R.residue.q * high)
                    for low, high in data.draw(st.lists(digits, min_size=n, max_size=n)))
              for _ in range(n))
    assert_matches_leibniz(g, R)


@pytest.mark.parametrize("q_pf,n,m", [((2, 1), 2, 2), ((2, 1), 4, 1), ((3, 1), 3, 2),
                                      ((2, 2), 2, 3)])
def test_random_gl_element_draws_as_the_leibniz_test_did(q_pf, n, m):
    for order in encodings(GF(*q_pf), n, m):
        R = order.ring
        ours, reference = random.Random(5), random.Random(5)
        for _ in range(20):
            rows, det = _gl_sample(order, ours)
            g = reference_gl_sample(R, n, reference)
            assert rows == [list(codes(row)) for row in g]
            # the determinant that accepted the sample is the sample's determinant
            assert OModElement(R, det).coeffs == leibniz_determinant(boxed(R, rows))
        assert ours.getstate() == reference.getstate()


def test_draws_are_the_values_and_state_of_randrange():
    # randrange(size) draws size.bit_length() bits until the value is below
    # size, so a power of two rejects half its draws
    for size in list(range(1, 301)) + [512, 4096, 65536]:
        for count in (1, 3, 16):
            ours, reference = random.Random(size), random.Random(size)
            assert pi0._draws(ours, size, count) == \
                [reference.randrange(size) for _ in range(count)]
            assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("pf,n,m", [((2, 1), 2, 2), ((3, 1), 3, 2), ((2, 2), 2, 1)])
def test_random_unit_draws_as_the_boxed_sampler_did(pf, n, m):
    for order in encodings(GF(*pf), n, m):
        ours, reference = random.Random(6), random.Random(6)
        for _ in range(20):
            assert _unit_sample(order, ours) == codes(reference_unit_sample(order, reference))
        assert ours.getstate() == reference.getstate()


def test_pi0_action_table_makes_the_draws_of_the_boxed_samplers():
    p, f, n, m, samples = 2, 2, 2, 2, 60
    q = p ** f
    ring = OModRing(GF(p, f), m)
    order = DivisionOrder(n, OModRing(GF(p, f * n), m), ring.residue)
    ours, reference = random.Random(9), random.Random(9)
    pi0_action_table(p, f, n, m, rng=ours, pair_samples=samples)
    for _ in range(2 * samples):
        reference_gl_sample(ring, n, reference)
    for _ in range(2 * samples):
        reference_unit_sample(order, reference)
    for _ in range(min(samples, 50)):
        reference_gl_sample(ring, n, reference)
        reference_gl_sample(ring, n, reference)
        reference_unit_sample(order, reference)
        reference_unit_sample(order, reference)
        for _ in range(3):
            reference.randrange((q - 1) * q ** (m - 1))
    assert ours.getstate() == reference.getstate()


# (p, f, n, m): n = 3 and odd characteristic, where a row swap's sign matters;
# (2, 1, 3, 3) and (3, 1, 2, 3) have q^(nm) > 256, so o'/t^m fills its tables
# on first lookup, and (2, 1, 1, 9) has q^m > 256, so both rings do
ORACLE_CASES = [(2, 1, 2, 2), (2, 1, 2, 3), (2, 2, 2, 2), (2, 1, 3, 1), (2, 1, 3, 2),
                (3, 1, 2, 1), (3, 1, 2, 2), (3, 1, 3, 1), (5, 1, 2, 1), (2, 1, 3, 3),
                (3, 1, 2, 3), (2, 1, 1, 9)]


@pytest.mark.parametrize("p,f,n,m", ORACLE_CASES)
def test_pi0_action_table_matches_the_boxed_reference(p, f, n, m):
    for seed in (1, 2, 3):
        ours, reference = random.Random(seed), random.Random(seed)
        assert pi0_action_table(p, f, n, m, rng=ours, pair_samples=30).report == \
            reference_pi0_action_table(p, f, n, m, reference, 30)
        assert ours.getstate() == reference.getstate()


@pytest.mark.parametrize("p,f,n,m", ORACLE_CASES)
def test_digit_codes_are_the_codes_from_int_digits_builds(p, f, n, m):
    # the digit string of the element with code k is the base-q digits of k,
    # and ring.element builds that element back from its coefficients
    for ring in (OModRing(GF(p, f), m), OModRing(GF(p, f * n), m)):
        q = ring.residue.q
        for k in range(ring.size):
            a = OModElement(ring, k)
            assert a.codes == bytes(k // q ** j % q for j in range(m))
            assert ring.element(a.coeffs) == a


def test_ring_tables_are_built_once_per_field_and_level(monkeypatch):
    # for n = 1, o'/t^m is another OModRing instance equal to the group's ring
    built = []

    class CountedTables(quotring._RingTables):
        def __init__(self, residue, m):
            built.append((residue, m))
            super().__init__(residue, m)

    monkeypatch.setattr(quotring, "_RingTables", CountedTables)
    quotring._code_tables.cache_clear()
    try:
        pi0_action_table(2, 1, 1, 8, rng=random.Random(0))
        assert built == [(GF(2), 8)]
        assert OModRing(GF(3), 2).code_tables is OModRing(GF(3), 2).code_tables
    finally:
        quotring._code_tables.cache_clear()


def _determinant_without_the_swap_sign(tables, rows):
    """Unit-pivot elimination on codes that forgets to negate on a row swap."""
    mul, sub = tables.mul_rows, tables.sub_rows
    rows = [list(row) for row in rows]
    n = len(rows)
    det = 1
    for c in range(n):
        r = next((r for r in range(c, n) if rows[r][c] % tables.q), None)
        if r is None:
            return None
        pivot = rows[r]
        rows[r] = rows[c]
        det = mul[det][pivot[c]]
        pivot_inv = tables.inv[pivot[c]]
        for row in rows[c + 1:]:
            factor = mul[row[c]][pivot_inv]
            for k in range(c + 1, n):
                row[k] = sub[row[k]][mul[factor][pivot[k]]]
    return det


# pi0_action_table(3, 1, 2, m): o'/t^m has 9 and 81 elements for m = 1, 2
# (full tables) and 729 for m = 3 (tables filled on first lookup)
@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_determinant_without_the_swap_sign_fails_the_det_check(m, monkeypatch):
    # the sampler's determinant comes from the same kernel as the product's,
    # so this shows that reusing it leaves the check able to fail
    pi0_action_table(3, 1, 2, m, rng=random.Random(0))
    monkeypatch.setattr(pi0, "_determinant", _determinant_without_the_swap_sign)
    with pytest.raises(NotInvertible, match="det not multiplicative on a sampled pair"):
        pi0_action_table(3, 1, 2, m, rng=random.Random(0))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_a_wrong_norm_past_the_frobenius_check_fails_the_exhaustive_norm_loop(m, monkeypatch):
    real = pi0._reduced_norm

    def squared_norm(order, b):
        # Nrd(b)^2 is Frobenius-fixed and multiplicative: neither the
        # Frobenius check nor the sampled Nrd pairs can see that it is wrong
        nrd = real(order, b)
        return order.ring.code_tables.mul_rows[nrd][nrd]

    monkeypatch.setattr(pi0, "_reduced_norm", squared_norm)
    with pytest.raises(FrobeniusInvarianceViolation, match="but the coefficient norm is"):
        pi0_action_table(3, 1, 2, m, rng=random.Random(0))


ORDER_CASES = st.one_of(
    st.tuples(st.sampled_from([(2, 1), (3, 1), (2, 2)]), st.sampled_from([2, 3]),
              st.integers(1, 3)),
    # o/t^m has more than 256 elements: both rings fill their tables on first lookup
    st.sampled_from([((2, 1), 2, 9), ((3, 1), 2, 6), ((2, 2), 2, 5)]))


def _order_element(data, order, unit):
    Q, size = order.big.residue.q, order.big.size
    first = data.draw(st.integers(0, size - 1).filter(lambda k: k % Q) if unit
                      else st.integers(0, size - 1))
    rest = data.draw(st.lists(st.one_of(st.just(0), st.integers(0, size - 1)),
                              min_size=order.n - 1, max_size=order.n - 1))
    return tuple(OModElement(order.big, k) for k in [first] + rest)


@settings(derandomize=True, database=None, max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(ORDER_CASES, st.data())
def test_order_arithmetic_matches_the_t_power_reference(case, data):
    pf, n, m = case
    orders = encodings(GF(*pf), n, m)
    order = orders[0]
    b, c = _order_element(data, order, True), _order_element(data, order, False)
    want = reference_reduced_norm(order, b)
    assert reduced_norm(order, b).coeffs == want
    for on_tables in orders:
        assert _order_mul(on_tables, codes(b), codes(c)) == \
            codes(reference_order_mul(order, b, c))
        assert OModElement(order.ring, _reduced_norm(on_tables, codes(b))).coeffs == want


# the height-2 orders whose o'/t^m has at most 64 elements, and (3, 1) at
# m = 2, the smallest where the sign of t Frob(b1) b1 shows (at q = 2 it is
# its own negative, at m = 1 it is 0): Nrd on every unit b0 + b1 Pi; of those
# with at most 16 elements, the product on every pair
HEIGHT_TWO_ORDERS = [((2, 1), 1), ((2, 1), 2), ((2, 1), 3), ((3, 1), 1), ((3, 1), 2),
                     ((2, 2), 1), ((5, 1), 1), ((7, 1), 1), ((2, 3), 1)]


@pytest.mark.parametrize("pf,m", HEIGHT_TWO_ORDERS)
def test_height_two_reduced_norm_matches_the_boxed_reference_on_every_unit(pf, m):
    orders = encodings(GF(*pf), 2, m)
    big = orders[0].big
    for b in itertools.product(big.units(), big.elements()):
        want = reference_reduced_norm(orders[0], b)
        for order in orders:
            assert OModElement(order.ring, _reduced_norm(order, codes(b))).coeffs == want


@pytest.mark.parametrize("pf,m", [(pf, m) for pf, m in HEIGHT_TWO_ORDERS
                                  if GF(*pf).q ** (2 * m) <= 16])
def test_height_two_order_product_matches_the_boxed_reference_on_every_pair(pf, m):
    orders = encodings(GF(*pf), 2, m)
    elements = list(itertools.product(orders[0].big.elements(), repeat=2))
    for b, c in itertools.product(elements, repeat=2):
        want = codes(reference_order_mul(orders[0], b, c))
        for order in orders:
            assert _order_mul(order, codes(b), codes(c)) == want


@pytest.mark.parametrize("pf,m", [((2, 1), 9), ((3, 1), 6)])
def test_height_two_closed_forms_match_the_boxed_reference_on_first_lookup_tables(pf, m):
    # o/t^m has more than 256 elements, so both rings fill their tables on
    # first lookup without being forced to: seeded draws instead of every pair
    order = encodings(GF(*pf), 2, m)[0]
    rng = random.Random(3)
    for _ in range(100):
        b, c = _unit_sample(order, rng), _unit_sample(order, rng)
        boxed_b, boxed_c = (tuple(OModElement(order.big, k) for k in x) for x in (b, c))
        assert OModElement(order.ring, _reduced_norm(order, b)).coeffs == \
            reference_reduced_norm(order, boxed_b)
        assert _order_mul(order, b, c) == codes(reference_order_mul(order, boxed_b, boxed_c))


def _reduced_norm_with_the_sign_flipped(order, b):
    """The height-2 closed form with b0 Frob(b0) + t Frob(b1) b1 for
    b0 Frob(b0) - t Frob(b1) b1.  Both terms are Frobenius-fixed, so only
    multiplicativity can see it."""
    tables = order.big.code_tables
    (b0, b1), frob, mul = b, order.conjugations[1], tables.mul_rows
    return order.projection[tables.add_rows[mul[b0][frob[b0]]][mul[tables.shift[frob[b1]]][b1]]]


def _order_mul_without_frobenius_on_c0(order, b, c):
    """The height-2 closed form with b1 c0 for b1 Frob(c0) in the Pi-coefficient."""
    tables = order.big.code_tables
    add, mul, shift = tables.add_rows, tables.mul_rows, tables.shift
    (b0, b1), (c0, c1), frob = b, c, order.conjugations[1]
    return (add[mul[b0][c0]][shift[mul[b1][frob[c1]]]], add[mul[b0][c1]][mul[b1][c0]])


@pytest.mark.parametrize("name,mutant", [("_reduced_norm", _reduced_norm_with_the_sign_flipped),
                                         ("_order_mul", _order_mul_without_frobenius_on_c0)])
def test_a_wrong_height_two_closed_form_fails_the_sampled_nrd_pairs(name, mutant, monkeypatch):
    # (3, 1, 2, 2): odd p and m >= 2.  With q = 2, -1 = 1; with m = 1, t = 0
    # in o'/t: either way t Frob(b1) b1 equals its negative or is 0, so the
    # flipped sign gives the true Nrd and no check there can fail
    monkeypatch.setattr(pi0, name, mutant)
    with pytest.raises(FrobeniusInvarianceViolation, match="Nrd not multiplicative on a sample"):
        pi0_action_table(3, 1, 2, 2, rng=random.Random(0))


@pytest.mark.parametrize("p,f,n,m", [(2, 1, 2, 2), (3, 1, 2, 1)])
def test_the_flipped_sign_is_the_true_norm_at_q_2_or_m_1(p, f, n, m, monkeypatch):
    want = pi0_action_table(p, f, n, m, rng=random.Random(0)).report
    monkeypatch.setattr(pi0, "_reduced_norm", _reduced_norm_with_the_sign_flipped)
    assert pi0_action_table(p, f, n, m, rng=random.Random(0)).report == want


def test_reduced_norm_scalar_is_norm():
    # n = 2, q = 2, m = 1: for b = x in F_4^x, Nrd = x * x^2 = 1
    big = OModRing(GF(2, 2), 1)
    order = DivisionOrder(2, big, GF(2))
    x = big.element([big.residue.gen()])
    got = reduced_norm(order, order.scalar(x))
    assert got.codes == bytes([1])
    # exhaustive over all scalar units: Nrd = coefficient norm
    for a in big.units():
        assert reduced_norm(order, order.scalar(a)) == a.norm_to(GF(2))


def test_reduced_norm_identity_and_nonunit():
    big = OModRing(GF(2, 2), 2)
    order = DivisionOrder(2, big, GF(2))
    assert reduced_norm(order, order.element([order.big.one()])).codes == bytes([1, 0])
    with pytest.raises(NotAUnit):
        reduced_norm(order, pi(order))


def test_order_associativity_sampled():
    for order in encodings(GF(2), 2, 2):
        rng = random.Random(5)
        for _ in range(50):
            a, b, c = (_unit_sample(order, rng) for _ in range(3))
            assert _order_mul(order, _order_mul(order, a, b), c) == \
                _order_mul(order, a, _order_mul(order, b, c))


def test_pi_commutation_relation():
    # Pi * a = Frob(a) * Pi
    for order in encodings(GF(2), 2, 2):
        x = order.big.element([order.big.residue.gen()])
        lhs = _order_mul(order, codes(pi(order)), codes(order.scalar(x)))
        rhs = _order_mul(order, codes(order.scalar(x.frobenius(1))), codes(pi(order)))
        assert lhs == rhs


def test_norm_one_units_count():
    big = OModRing(GF(2, 2), 2)
    order = DivisionOrder(2, big, GF(2))
    one = unit_group((2, 1), 2).ring.one()
    ones = [a for a in big.units() if reduced_norm(order, order.scalar(a)) == one]
    # kernel of the norm on scalars: (q^n-1)/(q-1) * q^((n-1)(m-1)) = 3 * 2 = 6
    assert len(ones) == 6


def test_pi0_action_q2_n2_m2():
    action = pi0_action_table(2, 1, 2, 2, rng=random.Random(42))
    rep = action.report
    assert rep["nrd_surjective"]
    assert rep["det_pairs"] >= 200
    assert rep["nrd_pairs"] >= 200
    assert rep["norm_one_scalars"] == 6
    # SL_2 generator acts as the identity on every component
    ring = action.group.ring
    ident_table = action.component_table(g=action.gl_gens[0])
    assert all(src == dst for src, dst in ident_table)
    # a scalar b = a0 acts by N(a0)^(-1)
    big = action.order.big
    a0 = next(a for a in big.units() if a.frobenius(1) != a)
    b = action.order.scalar(a0)
    n_inv = reduced_norm(action.order, b).inv()
    for src, dst in action.component_table(b=b):
        src_el = next(e for e in action.group.elements if tuple(e.codes) == src)
        assert tuple((n_inv * src_el).codes) == dst
    # a Galois class with character value u acts by u^(-1)
    u = next(e for e in action.group.elements if e != ring.one())
    for src, dst in action.component_table(tau_chi=u):
        src_el = next(e for e in action.group.elements if tuple(e.codes) == src)
        assert tuple((u.inv() * src_el).codes) == dst


def test_pi0_action_q3_n2_m1():
    action = pi0_action_table(3, 1, 2, 1, rng=random.Random(43))
    assert action.report["nrd_surjective"]
    assert action.group.order == 2


def test_characters_multiplicative_and_separated():
    G = unit_group((3, 1), 2)
    chars = all_characters(G)
    assert len(chars) == 6
    E = G.exponent
    dlog = generator_dlog(G)

    def value(om, a):
        exps = dlog[a.codes]
        return sum(e * v for e, v in zip(exps, om.generator_values)) % E

    for om in chars:
        assert all((value(om, a) + value(om, b)) % E == value(om, a * b)
                   for a in G.elements for b in G.elements)
    assert len({om.generator_values for om in chars}) == 6


def test_h0_decomposition_counts():
    _, chars, rows = h0_decomposition(2, 1, 3)
    assert len(rows) == 4
    _, chars, rows = h0_decomposition(3, 1, 2)
    assert len(rows) == 6
    for row in rows:
        E = int(row["value_group"].split("/")[1])
        assert all(0 <= v < E for v in row["omega_on_generators"])


def test_h0_trivial_group_single_character():
    _, chars, rows = h0_decomposition(2, 1, 1)
    assert len(rows) == 1


def test_action_and_character_exports():
    from omod.pi0 import characters_to_csv

    action = pi0_action_table(3, 1, 2, 1, rng=random.Random(3), pair_samples=20)
    doc = pi0_action_json(action)
    assert doc["group"]["order"] == 2
    assert any(rec["kind"] == "gl" for rec in doc["generator_actions"])
    assert any(rec["kind"] == "order-scalar" for rec in doc["generator_actions"])
    _, _, char_rows = h0_decomposition(3, 1, 2)
    csv_text = characters_to_csv(char_rows)
    assert csv_text.splitlines()[0].startswith("omega_on_generators")
    assert len(csv_text.splitlines()) == 7  # header + 6 characters


def _grid_of_unit_groups(max_order):
    """Every (p, f, m) with a published residue field and (q-1) q^(m-1) <= max_order."""
    grid = []
    for p in filter(_is_prime, range(2, RESIDUE_CARDINALITY_CAP + 1)):
        for f in range(1, RESIDUE_CARDINALITY_CAP.bit_length()):
            q = p ** f
            if q > RESIDUE_CARDINALITY_CAP or (f > 1 and (p, f) not in FIXED_MODULI):
                continue
            m = 1
            while (q - 1) * q ** (m - 1) <= max_order:
                grid.append((p, f, m))
                m += 1
    return grid


def _power_codes(tables, x, e):
    out = None
    while e:
        if e & 1:
            out = x if out is None else _mul_codes(tables, out, x)
        x = _mul_codes(tables, x, x)
        e >>= 1
    return out


def _enumerated_invariant_factors(ring, N):
    """Invariant factors of the units of `ring` (N of them) from the counts
    |G[r^k]| = #{x : x^(r^k) = 1}, each enumerated by raising every unit to
    the r-th power k times, and unit_group's partition of such counts."""
    tables, one = ring.tables, ring.one().codes
    units = [a.codes for a in ring.units()]
    assert len(units) == N
    partitions = []
    for r in _prime_factors(N):
        powers, counts = units, []
        while N % r ** (len(counts) + 1) == 0:
            powers = [_power_codes(tables, x, r) for x in powers]
            counts.append(powers.count(one))
        partitions.append((r, _partition_from_counts(counts, r)))
    depth = max((len(part) for _, part in partitions), default=0)
    return [math.prod(r ** part[i] for r, part in partitions if i < len(part))
            for i in range(depth)]


@pytest.mark.parametrize("p,f,m", _grid_of_unit_groups(5000))
def test_expected_invariant_factors_match_the_enumerated_group(p, f, m):
    ring = OModRing(GF(p, f), m)
    N = (ring.residue.q - 1) * ring.residue.q ** (m - 1)
    assert expected_invariant_factors(p, f, m) == _enumerated_invariant_factors(ring, N)
    if N <= 64:
        assert expected_invariant_factors(p, f, m) == unit_group((p, f), m).invariant_factors


@pytest.mark.parametrize("p,f,m", _grid_of_unit_groups(1000))
def test_element_orders_match_repeated_multiplication(p, f, m):
    # the order of a unit read from its exponents over the generators,
    # lcm_i d_i / gcd(e_i, d_i), is its order by repeated multiplication
    G = unit_group((p, f), m)
    dlog = generator_dlog(G)
    for a in G.elements:
        exps = dlog[a.codes]
        order = math.lcm(*(d // math.gcd(e, d) for e, (_, d) in zip(exps, G.generators)))
        assert order == reference_element_order(a)


@pytest.mark.parametrize("p,f,m", _grid_of_unit_groups(1000))
def test_generators_and_dlog_match_the_spans_from_scratch(p, f, m):
    G = unit_group((p, f), m)
    assert G.invariant_factors == _enumerated_invariant_factors(G.ring, G.order)
    orders = [reference_element_order(a) for a in G.elements]
    gens, dlog = reference_generator_basis(G.elements, G.ring, G.invariant_factors, orders)
    assert G.generators == gens
    assert list(generator_dlog(G).items()) == list(dlog.items())       # key order too
    assert _generator_basis(G.elements, G.ring, G.invariant_factors) == gens


@pytest.mark.parametrize("factors", [[12], [2, 6], [6]])
def test_unit_group_rejects_factors_that_are_not_the_groups(monkeypatch, factors):
    # (o/t^2)^x over F_4 is Z/6 x Z/2: [12] passes the pre-check but has no
    # generator of order 12, [2, 6] is not a divisor chain, [6] has the wrong product
    monkeypatch.setattr(pi0, "expected_invariant_factors", lambda p, f, m: list(factors))
    with pytest.raises(StructureViolation):
        unit_group((2, 2), 2)


@settings(derandomize=True, database=None, max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from([(2, 1, 2, 1), (2, 1, 2, 3), (2, 2, 2, 2), (3, 1, 2, 2), (2, 1, 3, 2),
                        (2, 1, 1, 8), (5, 1, 1, 3), (2, 4, 1, 2)]), st.integers(0, 2 ** 32))
def test_byte_and_digit_kernels_agree(case, seed):
    # the same draws give the same codes on full tables and on tables filled
    # on first lookup (the digit kernel behind each entry)
    p, f, n, m = case
    full, lazy = encodings(GF(p, f), n, m)
    assert isinstance(full.ring.code_tables, quotring._RingTables)

    def run(order, rng):
        tables, big_tables = order.ring.code_tables, order.big.code_tables
        (a, det_a), (b, det_b) = (_gl_sample(order, rng) for _ in range(2))
        product = _matrix_mul(tables, a, b)
        u, v = _unit_sample(order, rng), _unit_sample(order, rng)
        nrd = _reduced_norm(order, v)
        return (a, b, det_a, det_b, product, _determinant(tables, product), u, v,
                _order_mul(order, u, v), nrd, _norm(order, u[0]),
                tables.mul_rows[det_a][det_b], tables.inv[nrd], big_tables.inv[u[0]])

    rng_full, rng_lazy = random.Random(seed), random.Random(seed)
    assert run(full, rng_full) == run(lazy, rng_lazy)
    assert rng_full.getstate() == rng_lazy.getstate()


def test_a_given_unit_group_is_used_and_changes_nothing():
    group = unit_group((2, 1), 3)
    ours, again = random.Random(4), random.Random(4)
    given_group = pi0_action_table(2, 1, 2, 3, rng=ours, group=group)
    own_group = pi0_action_table(2, 1, 2, 3, rng=again)
    assert given_group.group is group
    assert given_group.report == own_group.report
    assert pi0_action_json(given_group) == pi0_action_json(own_group)
    assert ours.getstate() == again.getstate()


GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "pi0_codes.json")


@pytest.mark.parametrize("case", [(2, 1, 2, 2), (2, 1, 2, 5)])
def test_generators_dlog_and_pi0_tables_match_the_golden(case):
    # captured from the search on digit-code strings, at a ring with
    # full tables (o'/t^2 over F_4) and one filled on first lookup (o'/t^5);
    # the action document is pinned by the SHA-256 of its canonical JSON
    with open(GOLDEN) as fh:
        golden = {tuple(doc["case"]): doc for doc in json.load(fh)}[case]
    p, f, n, m = case
    group = unit_group((p, f), m)
    action = pi0_action_table(p, f, n, m, rng=random.Random(5))
    assert unit_group_json(group) == golden["unit_group"]
    assert [[list(k), list(v)] for k, v in generator_dlog(group).items()] == golden["dlog"]
    assert action.report == golden["report"]
    canonical = json.dumps(pi0_action_json(action), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == golden["pi0_action_sha256"]
