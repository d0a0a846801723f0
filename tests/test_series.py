"""Laurent-series arithmetic: precision propagation, valuations, zero handling."""

from fractions import Fraction
import math
import operator
import random

import pytest

from omod.errors import (DivisionByUncertainZero, MixedFields, UncertainValuation)
from omod.finitefield import GF
from omod.quotring import omod_ring
from omod.series import base_field


def F2t(prec=64):
    return base_field(2, 1, precision=prec)


def rand_element(field, rng, lo=-3, span=8, precision=None):
    pairs = {}
    for k in range(lo, lo + span):
        pairs[k] = rng.randrange(field.residue.q)
    return field.from_int_poly(pairs, precision=precision)


def test_char2_cancellation_keeps_precision():
    F = F2t()
    a = F.from_int_poly({1: 1, 2: 1}, precision=10)   # t + t^2 mod t^10
    b = F.from_int_poly({1: 1}, precision=10)
    c = a + b
    assert c.order() == 2
    assert c.precision == 10


def test_valuation_additive_under_mul():
    F = F2t()
    a = F.uniformizer_elt(2)
    b = F.uniformizer_elt(3)
    assert (a * b).order() == 5
    assert (a * b).valuation() == Fraction(5)


def test_geometric_series_inverse():
    # inv(1 + t) = 1 + t + t^2 + t^3 + t^4 mod t^5 over F_2((t))
    F = F2t()
    one_plus_t = F.from_int_poly({0: 1, 1: 1})
    inv = one_plus_t.inv(precision=5)
    assert [inv.coeff_at(k).to_int() for k in range(5)] == [1, 1, 1, 1, 1]
    assert (one_plus_t * inv - F.one()).order_lower_bound() >= 5


def test_inv_of_monomial_is_exact():
    F = base_field(3, 1)
    x = F.uniformizer_elt(4).scale(GF(3).from_int(2))
    y = x.inv()
    assert y.is_exact()
    assert (x * y).agrees(F.one())
    assert y.order() == -4


def test_mul_precision_rule():
    F = F2t()
    a = F.from_int_poly({2: 1}, precision=10)   # v=2, prec 10
    b = F.from_int_poly({3: 1}, precision=7)    # v=3, prec 7
    c = a * b
    # min(prec_a + v_b, prec_b + v_a) = min(13, 9) = 9
    assert c.precision == 9
    assert c.order() == 5


def test_add_precision_rule():
    F = F2t()
    a = F.from_int_poly({0: 1}, precision=12)
    b = F.from_int_poly({1: 1}, precision=8)
    assert (a + b).precision == 8


def test_uncertain_zero_valuation_flagged():
    F = F2t()
    a = F.from_int_poly({3: 1}, precision=10)
    z = a - a
    assert z.is_zero_mod_precision() and not z.is_exact_zero()
    with pytest.raises(UncertainValuation):
        z.order()
    assert z.order_lower_bound() == 10
    assert z.valuation_lower_bound() == Fraction(10)


def test_exact_zero_valuation_infinite():
    F = F2t()
    assert F.zero().order() is math.inf
    assert F.zero().valuation() is math.inf


def test_division_by_uncertain_zero():
    F = F2t()
    a = F.from_int_poly({3: 1}, precision=10)
    z = a - a
    with pytest.raises(DivisionByUncertainZero):
        F.one() / z
    with pytest.raises(ZeroDivisionError):
        F.zero().inv()


def test_mixed_fields_rejected():
    a = F2t().one()
    b = F2t().one()
    with pytest.raises(MixedFields):
        a + b  # distinct spec objects, even if structurally alike


def test_ultrametric_inequality_sampled():
    rng = random.Random(1001)
    F = base_field(3, 1)
    for _ in range(200):
        a = rand_element(F, rng)
        b = rand_element(F, rng)
        if a.is_zero_mod_precision() or b.is_zero_mod_precision():
            continue
        s = a + b
        if s.is_zero_mod_precision():
            continue
        assert s.order() >= min(a.order(), b.order())
        if a.order() != b.order():
            assert s.order() == min(a.order(), b.order())
        prod = a * b
        assert prod.order() == a.order() + b.order()


def test_precision_soundness_metamorphic():
    # recomputing at higher input precision agrees on all jointly known terms
    rng = random.Random(2002)
    F = base_field(2, 2)
    for _ in range(100):
        lo_pairs = {k: rng.randrange(4) for k in range(0, 12)}
        hi = F.from_int_poly(lo_pairs, precision=24)
        lo = F.from_int_poly(lo_pairs, precision=12)
        other_pairs = {k: rng.randrange(4) for k in range(0, 12)}
        w_hi = F.from_int_poly(other_pairs, precision=24)
        w_lo = F.from_int_poly(other_pairs, precision=12)
        for op in (operator.add, operator.mul):
            r_hi = op(hi, w_hi)
            r_lo = op(lo, w_lo)
            assert r_hi.agrees(r_lo)
        if not lo.is_zero_mod_precision() and lo.order() == 0:
            assert hi.inv().agrees(lo.inv())


def test_frobenius_power_scales_precision():
    F = F2t()
    a = F.from_int_poly({1: 1, 3: 1}, precision=9)
    b = a.frobenius_power(1)
    assert b.order() == 2
    assert b.precision == 18
    assert b.coeff_at(6).to_int() == 1


def test_pow_matches_repeated_mul():
    F = base_field(3, 1)
    a = F.from_int_poly({0: 2, 1: 1, 4: 2})
    assert (a ** 3).agrees(a * a * a)


def test_series_key_distinguishes():
    F = F2t()
    a = F.from_int_poly({0: 1, 5: 1}, precision=30)
    b = F.from_int_poly({0: 1, 6: 1}, precision=30)
    assert a.series_key() != b.series_key()
    assert a.series_key() == F.from_int_poly({0: 1, 5: 1}, precision=25).series_key()


def test_serialization_roundtrip():
    F = base_field(2, 2)
    a = F.from_int_poly({-1: 1, 0: 2, 3: 3}, precision=17)
    doc = a.to_json()
    assert doc["leading_exponent"] == -1
    assert doc["precision"] == 17
    rebuilt = F.element(doc["leading_exponent"],
                        [F.residue.element(c) for c in doc["coeffs"]],
                        doc["precision"])
    assert rebuilt.agrees(a) and rebuilt.precision == a.precision


def test_quotring_arithmetic_and_units():
    R = omod_ring(2, 1, 3)
    units = list(R.units())
    assert len(units) == 4
    one = R.one()
    g = R.element([R.residue.one(), R.residue.one()])  # 1 + t
    assert (g * g).lex_key() == (1, 0, 1)  # (1+t)^2 = 1 + t^2 mod t^3
    assert (g ** 4).lex_key() == one.lex_key()
    assert (g * g.inv()).lex_key() == one.lex_key()
    t = R.t()
    assert not t.is_unit()
    with pytest.raises(ZeroDivisionError):
        t.inv()


def test_quotring_norm():
    # N: (o'/t^2)^x -> (o/t^2)^x for residue F_4 over F_2: a * Frob(a)
    R4 = omod_ring(2, 2, 2)
    R2 = omod_ring(2, 1, 2)
    x = R4.residue.gen()
    a = R4.element([R4.residue.one(), x])  # 1 + x t
    n = a.norm_to(GF(2))
    assert n.ring == R2
    # (1 + x t)(1 + x^2 t) = 1 + (x + x^2) t = 1 + t
    assert n.lex_key() == (1, 1)
