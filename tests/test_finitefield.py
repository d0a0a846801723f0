"""Finite-field arithmetic: exhaustive axioms for q <= 16, Frobenius, moduli,
and FqElement against the digit-tuple oracle."""

from itertools import product
import re
import time

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from omod import finitefield
from omod.errors import CapExceeded, MixedFields
from omod.finitefield import (FIXED_MODULI, GF, FieldSpec, FqElement, _is_prime, _tables,
                              embed_fq, field_with_order, subfield_embedding_image)
import finitefield_reference as ref
from packed_reference import ref_add, ref_mul, ref_pack, ref_unpack
from quotring_reference import project_fq

SMALL_FIELDS = [(2, 1), (3, 1), (5, 1), (7, 1), (11, 1), (13, 1),
                (2, 2), (2, 3), (2, 4), (3, 2)]


def test_modulus_table_is_irreducible():
    for (p, f) in [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (2, 7), (2, 8),
                   (3, 2), (3, 3), (3, 4), (3, 5), (5, 2), (5, 3), (7, 2),
                   (11, 2), (13, 2)]:
        spec = GF(p, f)
        assert ref.is_irreducible(spec.modulus, p)
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
    for q in (12, 600, 257 * 7):
        with pytest.raises(ValueError, match="not a prime power"):
            field_with_order(q)
    # above the cap the trial division stops at the cap: no factor up to it
    # means over the cap, prime power or not
    for q in (257, 257 ** 2, 257 * 263, 1000000000000037):
        with pytest.raises(CapExceeded, match="residue cardinality %d exceeds cap 256" % q):
            field_with_order(q)


def test_reducible_moduli_are_rejected_exactly_when_the_rabin_test_says_so(monkeypatch):
    """Every monic modulus of degree 2..5 over F_2, 2..3 over F_3 and 2 over
    F_5 and F_7, and x^8 + x^7 + x^5 + x over F_2."""
    start, seen = time.perf_counter(), 0
    slow = (0, 1, 0, 0, 0, 1, 0, 1)  # the slowest q = 256 rejection under a q - 1 step walk
    for p, f, low in [(p, f, low)
                      for p, f in [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]
                      for low in product(range(p), repeat=f)] + [(2, 8, slow)]:
        seen += 1
        if ref.is_irreducible(low, p):
            assert FieldSpec(p, f, low).q == p ** f
        else:
            with pytest.raises(ValueError, match=re.escape(
                    "modulus %r is reducible over F_%d" % (low, p))):
                FieldSpec(p, f, low)
    assert seen == 171
    assert time.perf_counter() - start < 1
    # each of the 254 candidates costs O(log q) products, at most 2 log2(q)
    # per power for g^(q-1) and g^((q-1)/r), r in {3, 5, 17}; a walk of the
    # powers of each candidate made 54,074
    calls = []
    monkeypatch.setattr(finitefield, "_poly_mul_mod",
                        lambda *args: calls.append(1) or ref.poly_mul_mod(*args))
    assert finitefield._exp_log.__wrapped__(2, slow) is None
    assert 254 <= len(calls) <= 254 * 4 * 2 * 8


def check_against_oracle(spec, k, j, e):
    """FqElement's + - * neg inv ** frobenius and coeffs on the codes k, j
    against the digit-tuple oracle, with exponent e."""
    a, b = FqElement(spec, k), FqElement(spec, j)
    x, y = ref.digits(spec, k), ref.digits(spec, j)
    assert a.coeffs == x
    assert (a + b).code == ref.code(spec, ref.ref_add(spec, x, y))
    assert (a - b).code == ref.code(spec, ref.ref_sub(spec, x, y))
    assert (a * b).code == ref.code(spec, ref.ref_mul(spec, x, y))
    assert (-a).code == ref.code(spec, ref.ref_neg(spec, x))
    assert a.frobenius(e).code == ref.code(spec, ref.ref_frobenius(spec, x, e))
    if k:
        assert a.inv().code == ref.code(spec, ref.ref_inv(spec, x))
        assert (a ** e).code == ref.code(spec, ref.ref_pow(spec, x, e))
    else:
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            a.inv()
        if e < 0:
            with pytest.raises(ZeroDivisionError, match="inverse of zero"):
                a ** e
        else:
            assert (a ** e).code == ref.code(spec, ref.ref_pow(spec, x, e)) == (0 if e else 1)


@pytest.mark.parametrize("p,f", SMALL_FIELDS)
def test_fq_ops_match_the_digit_oracle_exhaustive(p, f):
    spec = GF(p, f)
    for k in range(spec.q):
        for j in range(spec.q):
            check_against_oracle(spec, k, j, j - 2)


def test_fq_elements_are_values_of_field_and_codes():
    F9 = GF(3, 2)
    a, same = FqElement(F9, 5), FqElement(FieldSpec(3, 2, (1, 0)), 5)
    assert a == same and hash(a) == hash(same) and a.spec is not same.spec
    assert a + same == a * F9.from_int(2) and a - same == F9.zero()
    # the same code in F_8: another field, so another element
    in_f8 = FqElement(GF(2, 3), 5)
    assert in_f8.code == a.code and in_f8 != a
    assert a != a.code and a != a.coeffs
    assert FqElement.__slots__ == ("spec", "code") and not hasattr(a, "__dict__")
    table = {a: "a"}
    assert table[same] == "a" and in_f8 not in table and F9.zero() not in table
    for op in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y,
               lambda x, y: x / y):
        with pytest.raises(MixedFields):
            op(a, in_f8)
    with pytest.raises(ZeroDivisionError, match=re.escape("inverse of zero in GF(3^2)")):
        F9.zero().inv()
    with pytest.raises(ZeroDivisionError):
        a / F9.zero()
    assert F9.element([5, 4, 7]) == F9.from_int(2 + 3 * 1) == FqElement(F9, 5)


# every (p, f) with q <= 256: the primes, and the moduli table's keys
ALL_FIELDS = [(p, 1) for p in range(2, 257) if _is_prime(p)] + sorted(FIXED_MODULI)


@pytest.mark.parametrize("p,f", ALL_FIELDS)
@settings(derandomize=True, database=None, max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
@given(data=st.data())
def test_packed_kernel_matches_the_per_slot_and_dict_fold_oracles(p, f, data):
    tables = _tables(GF(p, f))
    codes = st.lists(st.integers(0, p ** f - 1), max_size=70).map(bytes)
    a, b = data.draw(codes), data.draw(codes)
    for width in (1, 2, 4):
        assert tables.pack(a, width) == ref_pack(tables, a, width)
        # any slot values below 256**width, and bytes beyond the n coefficients
        size = len(a) * tables.stride * width
        value = int.from_bytes(data.draw(st.binary(min_size=size, max_size=size + 4)), "little")
        assert tables.unpack(value, len(a), width) == ref_unpack(tables, value, len(a), width)
    n = data.draw(st.integers(0, len(a) + 2))
    assert tables.mul(a, b, n) == ref_mul(tables, a, b, n)
    ia, ib = data.draw(st.integers(0, 3)), data.draw(st.integers(0, 3))
    assert tables.add(a, ia, b, ib) == ref_add(tables, a, ia, b, ib)


@pytest.mark.parametrize("p,f", ALL_FIELDS)
@settings(derandomize=True, database=None, max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_fq_ops_match_the_digit_oracle_sampled(p, f, data):
    spec = GF(p, f)
    k, j = (data.draw(st.integers(0, spec.q - 1)) for _ in range(2))
    check_against_oracle(spec, k, j, data.draw(st.integers(-2 * spec.q, 2 * spec.q)))
