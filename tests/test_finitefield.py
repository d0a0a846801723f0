"""Finite-field arithmetic: exhaustive axioms for q <= 16, Frobenius, moduli."""

import pytest

from omod.errors import CapExceeded, MixedFields
from omod.finitefield import (GF, embed_fq, field_with_order, is_irreducible, project_fq,
                              subfield_embedding_image)

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (2, 2), (2, 3), (2, 4), (3, 2)]


def test_modulus_table_is_irreducible():
    for (p, f) in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                   (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
                   (11, 2), (13, 2)]:
        spec = GF(p, f)
        assert is_irreducible(spec.modulus, p)
        assert spec.q == p ** f


def test_residue_cap():
    with pytest.raises(CapExceeded):
        GF(2, 9)
    with pytest.raises(CapExceeded):
        GF(17, 2)


def test_prime_check():
    with pytest.raises(ValueError):
        GF(6, 1)


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_field_axioms_exhaustive(p, f):
    spec = GF(p, f)
    els = list(spec.elements())
    assert len(els) == spec.q
    zero, one = spec.zero(), spec.one()
    for a in els:
        assert a + zero == a
        assert a * one == a
        assert a + (-a) == zero
        if not a.is_zero():
            assert a * a.inv() == one
    for a in els:
        for b in els:
            assert a + b == b + a
            assert a * b == b * a
            for c in els:
                assert (a + b) + c == a + (b + c)
                assert (a * b) * c == a * (b * c)
                assert a * (b + c) == a * b + a * c


@pytest.mark.parametrize("p,f", [(2, 2), (2, 3), (2, 4), (3, 2)])
def test_frobenius_is_automorphism_exhaustive(p, f):
    spec = GF(p, f)
    els = list(spec.elements())
    for a in els:
        assert a.frobenius(f) == a
        for b in els:
            assert (a + b).frobenius() == a.frobenius() + b.frobenius()
            assert (a * b).frobenius() == a.frobenius() * b.frobenius()


def test_char_2_addition():
    F2 = GF(2)
    assert (F2.one() + F2.one()).is_zero()


def test_f4_generator_square():
    # x^2 = x + 1 in F_4 = F_2[x]/(x^2 + x + 1)
    F4 = GF(2, 2)
    x = F4.gen()
    assert x * x == x + F4.one()
    assert x.frobenius() == x * x


def test_f9_inverse_of_generator():
    # F_9 = F_3[x]/(x^2 + 1): x * 2x = 2x^2 = -2 = 1, so inv(x) = 2x.
    # Independent oracle: exhaustive multiplication-table search.
    F9 = GF(3, 2)
    x = F9.gen()
    found = [b for b in F9.elements() if (x * b) == F9.one()]
    assert found == [x.inv()]
    assert x.inv() == x + x


def test_f9_frobenius_of_generator():
    # x^3 = x * x^2 = x * (-1) = 2x in F_9
    F9 = GF(3, 2)
    x = F9.gen()
    assert x.frobenius(1) == x + x


def test_fq_operators_and_errors():
    F4 = GF(2, 2)
    F9 = GF(3, 2)
    a = F4.gen()
    assert -a == a
    with pytest.raises(MixedFields):
        a + F9.gen()
    with pytest.raises(ZeroDivisionError):
        F4.zero().inv()


def test_embedding_is_homomorphism():
    F3 = GF(3)
    F9 = GF(3, 2)
    img = subfield_embedding_image(F3, F9)
    for a in F3.elements():
        for b in F3.elements():
            assert embed_fq(a, F9) * embed_fq(b, F9) == embed_fq(a * b, F9)
            assert embed_fq(a, F9) + embed_fq(b, F9) == embed_fq(a + b, F9)
    # embed then project round-trips
    for a in F3.elements():
        assert project_fq(embed_fq(a, F9), F3) == a
    assert img == img  # deterministic choice is cached


def test_embedding_f2_to_f4_fixes_prime_field():
    F2, F4 = GF(2), GF(2, 2)
    assert embed_fq(F2.one(), F4) == F4.one()


def test_field_with_order():
    assert field_with_order(8) == GF(2, 3)
    assert field_with_order(9) == GF(3, 2)
    with pytest.raises(ValueError):
        field_with_order(12)


def test_serialization_roundtrip():
    F8 = GF(2, 3)
    a = F8.from_int(5)
    doc = a.to_json()
    assert doc["coeffs"] == [1, 0, 1]
    assert doc["field"] == {"p": 2, "f": 3, "modulus": [1, 1, 0]}
    assert F8.element(doc["coeffs"]) == a
