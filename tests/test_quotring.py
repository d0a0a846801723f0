"""o/t^m on codes against the boxed FqElement reference, and the lazily built
code tables."""

import os
import subprocess
import sys

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from omod.errors import MixedFields
from omod import finitefield
from omod.finitefield import (FIXED_MODULI, GF, FqElement, _frobenius_table, _is_prime, _Tables,
                              _undigits)
from omod.quotring import (OModElement, OModRing, _add_codes, _digits, _mul_codes,
                           _power, _RingTables, _WideTables)

import finitefield_reference as fref
from quotring_reference import (ref_add, ref_frobenius, ref_inv, ref_mul, ref_descend_to,
                                ref_norm_to, ref_pow, ref_reduce_to, ref_sub, t_power)

FIELDS = [(2, 1), (2, 4), (3, 2), (5, 1), (2, 8)]
# subfields (norm targets)
SUBFIELDS = {(2, 1): [(2, 1)], (2, 4): [(2, 1), (2, 2), (2, 4)], (3, 2): [(3, 1), (3, 2)],
             (5, 1): [(5, 1)], (2, 8): [(2, 1), (2, 2), (2, 4), (2, 8)]}

property_test = settings(derandomize=True, database=None, max_examples=150, deadline=None,
                         suppress_health_check=[HealthCheck.too_slow])


@st.composite
def ring_and_elements(draw, count):
    pf = draw(st.sampled_from(FIELDS))
    ring = OModRing(GF(*pf), draw(st.integers(1, 6)))
    q = ring.residue.q
    values = []
    for _ in range(count):
        # about half the digits zero, so non-units and t-multiples occur
        digits = draw(st.lists(st.one_of(st.just(0), st.integers(0, q - 1)),
                               min_size=ring.m, max_size=ring.m))
        values.append(ring.element([ring.residue.from_int(d) for d in digits]))
    return pf, ring, values


def power(a, e):
    """a^e by square-and-multiply on the ring's codes (e < 0 through a.inv())."""
    if e < 0:
        a, e = a.inv(), -e
    return OModElement(a.ring, _power(a.ring.code_tables, a.code, e))


def times_t_power(a, w):
    """a t^w by w lookups in the ring's shift table."""
    k = a.code
    for _ in range(w):
        k = a.ring.code_tables.shift[k]
    return OModElement(a.ring, k)


@property_test
@given(ring_and_elements(2))
def test_ring_operations_match_reference(drawn):
    _pf, ring, (a, b) = drawn
    assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
    assert (a - b).coeffs == ref_sub(a.coeffs, b.coeffs)
    assert (-a).coeffs == ref_sub(ring.zero().coeffs, a.coeffs)
    assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)
    assert (a * b).codes == bytes(c.code for c in ref_mul(a.coeffs, b.coeffs))
    assert a.is_zero() == all(c.is_zero() for c in a.coeffs)
    assert a.level() == next((j for j, c in enumerate(a.coeffs) if not c.is_zero()), ring.m)


@property_test
@given(ring_and_elements(1), st.integers(-4, 20))
def test_inv_and_pow_match_reference(drawn, e):
    _pf, ring, (a,) = drawn
    if not a.is_unit():
        with pytest.raises(ZeroDivisionError):
            a.inv()
        e = abs(e)
    else:
        assert a.inv().coeffs == ref_inv(a.coeffs)
    assert power(a, e).coeffs == ref_pow(a.coeffs, e)


@property_test
@given(ring_and_elements(1), st.integers(0, 9), st.data())
def test_digit_maps_match_reference(drawn, j, data):
    pf, ring, (a,) = drawn
    assert a.frobenius(j).coeffs == ref_frobenius(a.coeffs, j)
    sub = GF(*data.draw(st.sampled_from(SUBFIELDS[pf])))
    norm = a.norm_to(sub)
    assert norm.ring == OModRing(sub, ring.m)
    assert norm.coeffs == ref_norm_to(a.coeffs, sub)
    m = data.draw(st.integers(1, 6))
    reduced = a.reduce_to(m)
    assert reduced.ring == OModRing(ring.residue, m)
    assert reduced.coeffs == ref_reduce_to(a.coeffs, m)


def test_descend_to_rejects_digits_outside_the_subfield():
    ring = OModRing(GF(2, 4), 2)
    inside = ring.element([ring.residue.one(), ring.residue.gen() ** 5])   # x^5 lies in F_4
    assert inside.descend_to(GF(2, 2)).coeffs == ref_descend_to(inside.coeffs, GF(2, 2))
    with pytest.raises(MixedFields):
        ring.element([ring.residue.one(), ring.residue.gen()]).descend_to(GF(2, 2))


def test_element_rejects_coefficients_of_another_field():
    with pytest.raises(MixedFields):
        OModRing(GF(2, 2), 2).element([GF(2, 1).one()])


def test_elements_leave_as_fq_elements():
    ring = OModRing(GF(3, 2), 3)
    a = OModElement(ring, 5 + 9 * 7)
    assert all(isinstance(c, FqElement) and c.spec == ring.residue for c in a.coeffs)
    assert a.codes == bytes([5, 7, 0])
    assert [c.coeffs for c in a.coeffs] == [(2, 1), (1, 2), (0, 0)]
    assert repr(a) == "Fq(2,1) + Fq(1,2)*t"


def test_no_table_is_built_at_import():
    code = ("import omod, omod.cli\n"
            "from omod.finitefield import _tables, _frobenius_table, _move_table\n"
            "assert (_tables.cache_info().currsize, _frobenius_table.cache_info().currsize,"
            " _move_table.cache_info().currsize) == (0, 0, 0)\n")
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                   check=True)


@pytest.mark.parametrize("pf", [(2, 8), (3, 5), (13, 2), (251, 1)])
def test_tables_are_built_without_fq_products(pf, monkeypatch):
    """FqElement's operations read the tables, so a build through them, or
    through _tables, would recurse: both are blocked while building."""
    def no_products(*args):
        raise AssertionError("FqElement operation or table lookup while building tables")

    spec = GF(*pf)
    for name in ("__add__", "__neg__", "__mul__", "__pow__", "inv"):
        monkeypatch.setattr(FqElement, name, no_products)
    monkeypatch.setattr(finitefield, "_tables", no_products)
    tables = _Tables(spec)
    rows = (tables.add_rows, tables.sub_rows, tables.mul_rows, tables.inv, tables.neg,
            tables.fold_plan)
    monkeypatch.undo()
    add_rows, sub_rows, mul_rows, inv, neg, _ = rows
    for a in range(0, tables.q, 7):
        x = fref.digits(spec, a)
        assert neg[a] == fref.code(spec, fref.ref_neg(spec, x))
        for b in range(0, tables.q, 5):
            y = fref.digits(spec, b)
            assert add_rows[a][b] == fref.code(spec, fref.ref_add(spec, x, y))
            assert sub_rows[a][b] == fref.code(spec, fref.ref_sub(spec, x, y))
            assert mul_rows[a][b] == fref.code(spec, fref.ref_mul(spec, x, y))
        if a:
            assert inv[a] == fref.code(spec, fref.ref_inv(spec, x))


def test_elements_are_values_of_ring_and_codes():
    ring = OModRing(GF(3, 2), 2)
    a, same = OModElement(ring, 1 + 9 * 2), OModElement(OModRing(GF(3, 2), 2), 1 + 9 * 2)
    assert a == same and hash(a) == hash(same) and a is not same
    assert a != OModElement(ring, 2 + 9 * 2)
    # the same digits in o/t^2 over F_3: another ring, so another element
    over_f3 = OModElement(OModRing(GF(3), 2), 1 + 3 * 2)
    assert over_f3.codes == a.codes and over_f3 != a
    assert a != a.code and a != a.codes
    assert OModElement.__slots__ == ("ring", "code")
    table = {a: "a"}
    assert table[same] == "a" and over_f3 not in table and ring.zero() not in table


@property_test
@given(ring_and_elements(1))
def test_shift_is_a_product_by_a_power_of_t(drawn):
    _pf, ring, (a,) = drawn
    for w in range(ring.m + 2):
        assert times_t_power(a, w) == a * t_power(ring, w)


def _rings_of_at_most_256_elements():
    """Every (p, f, m) with a published residue field and q^m <= 256."""
    fields = [(p, 1) for p in range(2, 257) if _is_prime(p)] + sorted(FIXED_MODULI)
    return [(p, f, m) for p, f in fields for m in range(1, 9) if p ** (f * m) <= 256]


@pytest.mark.parametrize("p,f,m", _rings_of_at_most_256_elements())
def test_byte_tables_match_the_digit_kernel_on_every_pair(p, f, m):
    ring = OModRing(GF(p, f), m)
    tables, field, q, size = ring.code_tables, ring.tables, ring.residue.q, ring.size
    assert isinstance(tables, _RingTables) and tables.q == q
    digit = [_digits(k, q, m) for k in range(size)]
    frob = _frobenius_table(ring.residue, 1)
    # the same ring with tables filled on first lookup, on the same codes
    wide = _WideTables(ring.residue, m)
    for k, x in enumerate(digit):
        assert _undigits(x, q) == k
        assert tables.decode(k) == wide.decode(k) == x
        assert tables.digitwise(frob)[k] == wide.digitwise(frob)[k] == \
            _undigits(x.translate(frob), q)
        assert tables.neg[k] == wide.neg[k] == _undigits(x.translate(field.neg), q)
        assert tables.shift[k] == wide.shift[k] == k * q % size
        assert tables.inv[k] == wide.inv[k]
        assert tables.mul_rows[k][tables.inv[k]] == 1 if k % q else tables.inv[k] == 0
    if m == 1:
        # F_q's own tables, checked against the digit oracle in test_finitefield
        assert (tables.add_rows, tables.sub_rows, tables.mul_rows, tables.neg, tables.inv) == \
            (field.add_rows, field.sub_rows, field.mul_rows, field.neg, field.inv)
        return
    for a, x in enumerate(digit):
        for rows, wide_rows, kernel in ((tables.add_rows, wide.add_rows, _add_codes),
                                        (tables.mul_rows, wide.mul_rows, _mul_codes)):
            want = bytes(_undigits(kernel(field, x, y), q) for y in digit)
            assert rows[a][:size] == want
            assert bytes(wide_rows[a][b] for b in range(size)) == want
        # a - b is the c with c + b = a, once addition is checked
        assert [tables.add_rows[tables.sub_rows[a][b]][b] for b in range(size)] == [a] * size
        assert bytes(wide.sub_rows[a][b] for b in range(size)) == tables.sub_rows[a][:size]


def test_no_byte_tables_beyond_256_elements():
    assert isinstance(OModRing(GF(3), 5).code_tables, _RingTables)
    tables = OModRing(GF(3), 6).code_tables
    assert isinstance(tables, _WideTables) and tables.q == 3
    assert tables.decode(1) == bytes([1, 0, 0, 0, 0, 0])
    assert tables.decode(2 + 3 + 3 ** 5) == bytes([2, 1, 0, 0, 0, 1])


# rings on both sides of 256 elements: q = 3 at m = 5 and 6, q = 2 at m = 8
# and 9, GF(16) at m = 2 and 3
BOTH_SIDES_OF_256 = [((3, 1), 5), ((3, 1), 6), ((2, 1), 8), ((2, 1), 9), ((2, 4), 2), ((2, 4), 3)]


@property_test
@given(st.sampled_from(BOTH_SIDES_OF_256), st.data())
def test_element_operations_match_reference_on_both_sides_of_256_elements(case, data):
    pf, m = case
    ring = OModRing(GF(*pf), m)
    a, b = (OModElement(ring, data.draw(st.integers(0, ring.size - 1))) for _ in range(2))
    e, w = data.draw(st.integers(0, 12)), data.draw(st.integers(0, m + 1))
    assert (a + b).coeffs == ref_add(a.coeffs, b.coeffs)
    assert (a - b).coeffs == ref_sub(a.coeffs, b.coeffs)
    assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)
    assert power(a, e).coeffs == ref_pow(a.coeffs, e)
    assert times_t_power(a, w).coeffs == ref_mul(a.coeffs, t_power(ring, w).coeffs)
    if a.is_unit():
        assert a.inv().coeffs == ref_inv(a.coeffs)
        assert power(a, -e).coeffs == ref_pow(a.coeffs, -e)
    else:
        with pytest.raises(ZeroDivisionError):
            a.inv()


def test_a_ring_of_2_to_the_24_elements_builds_no_table_of_every_element():
    ring = OModRing(GF(2, 4), 6)
    tables = ring.code_tables
    assert isinstance(tables, _WideTables)
    a, b = OModElement(ring, 0x3A01F7), OModElement(ring, 0xC4D2E9)
    assert (a * b).coeffs == ref_mul(a.coeffs, b.coeffs)
    assert (a - b).coeffs == ref_sub(a.coeffs, b.coeffs)
    assert a.inv().coeffs == ref_inv(a.coeffs)
    assert power(a, 5).coeffs == ref_pow(a.coeffs, 5)
    # an inverse is about 2 * 24 row entries; nothing near 2^24 is filled
    filled = len(tables.decode.__self__) + sum(
        len(row) for rows in (tables.add_rows, tables.sub_rows, tables.mul_rows)
        for row in rows.values())
    assert filled < 1000
