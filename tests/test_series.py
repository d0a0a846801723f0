"""Laurent-series arithmetic: precision propagation, valuations, zero handling."""

from fractions import Fraction
import math
import operator
import random

from hypothesis import HealthCheck, given, settings, strategies as st
import pytest

from omod.errors import (DivisionByUncertainZero, MixedFields, OmodError,
                         PrecisionExhausted, UncertainValuation)
from omod.finitefield import GF, FqElement, embed_fq, field_with_order
from omod.quotring import OModRing
from omod.series import (LocalFieldElement, _PowerTable, _min_prec, _mul_prec, base_field,
                         make_element, series_keys, substitute)
from omod.tower import unramified_extension
from oracle_utils import int_poly
from packed_reference import RefPowerTable


def F2t(prec=64):
    return base_field(2, 1, precision=prec)


def rand_element(field, rng, lo=-3, span=8, precision=None):
    pairs = {}
    for k in range(lo, lo + span):
        pairs[k] = rng.randrange(field.residue.q)
    return int_poly(field, pairs, precision=precision)


def test_char2_cancellation_keeps_precision():
    F = F2t()
    a = int_poly(F, {1: 1, 2: 1}, precision=10)   # t + t^2 mod t^10
    b = int_poly(F, {1: 1}, precision=10)
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
    one_plus_t = int_poly(F, {0: 1, 1: 1})
    inv = one_plus_t.inv(precision=5)
    assert [inv.coeff_at(k).code for k in range(5)] == [1, 1, 1, 1, 1]
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
    a = int_poly(F, {2: 1}, precision=10)   # v=2, prec 10
    b = int_poly(F, {3: 1}, precision=7)    # v=3, prec 7
    c = a * b
    # min(prec_a + v_b, prec_b + v_a) = min(13, 9) = 9
    assert c.precision == 9
    assert c.order() == 5


def known_terms(x):
    """{exponent: FqElement} of the stored terms of x below its precision,
    read through coeff_at."""
    hi = x.leading_exponent + len(x.coeffs)
    if x.precision is not None:
        hi = min(hi, x.precision)
    return {k: x.coeff_at(k) for k in range(x.leading_exponent, hi)}


def from_terms(field, terms, precision):
    if not terms:
        return field.zero(precision)
    zero = field.residue.zero()
    lo, hi = min(terms), max(terms)
    return make_element(field, lo, [terms.get(k, zero) for k in range(lo, hi + 1)],
                        precision)


def schoolbook_mul(a, b):
    """Every coefficient product, clamped to the result precision afterwards:
    the reference that LocalFieldElement.__mul__ must match term for term.
    Stored terms at or beyond an operand's precision would only reach
    exponents at or beyond the product's precision, so they are left out."""
    zero = a.field.residue.zero()
    out = {}
    for i, x in known_terms(a).items():
        if x.is_zero():
            continue
        for j, y in known_terms(b).items():
            out[i + j] = out.get(i + j, zero) + x * y
    return from_terms(a.field, out, _mul_prec(a, b))


@pytest.mark.parametrize("p,f", [(2, 1), (3, 1), (2, 2), (3, 2)])
def test_mul_matches_schoolbook_then_clamp(p, f):
    F = base_field(p, f)
    rng = random.Random(p * 10 + f)

    def sample():
        lo = rng.randrange(-6, 6)
        span = rng.randrange(0, 9)
        # zero coefficients inside the window, and sometimes everywhere
        pairs = {k: rng.randrange(F.residue.q) if rng.random() < 0.7 else 0
                 for k in range(lo, lo + span)}
        precision = None if rng.random() < 0.3 else lo + rng.randrange(-2, 12)
        return int_poly(F, pairs, precision=precision)

    kinds = set()
    for _ in range(300):
        a, b = sample(), sample()
        kinds.add((a.is_exact(), b.is_exact(),
                   a.is_zero_mod_precision() or b.is_zero_mod_precision()))
        assert a * b == schoolbook_mul(a, b)
    assert len(kinds) == 8   # exact and truncated operands, with and without zeros


def test_mul_with_no_known_product_terms():
    # stored terms at or beyond the precision: prec - e0 <= 0 for the product
    F = base_field(3, 1)
    a = LocalFieldElement(F, 4, b"\x01\x01", 3)
    b = int_poly(F, {-2: 1, 0: 2}, precision=None)
    for x, y in ((a, b), (b, a), (a, a)):
        got = x * y
        assert got == schoolbook_mul(x, y)
        assert got.is_zero_mod_precision() and got.precision == _mul_prec(x, y)


def test_add_precision_rule():
    F = F2t()
    a = int_poly(F, {0: 1}, precision=12)
    b = int_poly(F, {1: 1}, precision=8)
    assert (a + b).precision == 8


def test_uncertain_zero_valuation_flagged():
    F = F2t()
    a = int_poly(F, {3: 1}, precision=10)
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
    a = int_poly(F, {3: 1}, precision=10)
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
        hi = int_poly(F, lo_pairs, precision=24)
        lo = int_poly(F, lo_pairs, precision=12)
        other_pairs = {k: rng.randrange(4) for k in range(0, 12)}
        w_hi = int_poly(F, other_pairs, precision=24)
        w_lo = int_poly(F, other_pairs, precision=12)
        for op in (operator.add, operator.mul):
            r_hi = op(hi, w_hi)
            r_lo = op(lo, w_lo)
            assert r_hi.agrees(r_lo)
        if not lo.is_zero_mod_precision() and lo.order() == 0:
            assert hi.inv().agrees(lo.inv())


def test_frobenius_power_scales_precision():
    F = F2t()
    a = int_poly(F, {1: 1, 3: 1}, precision=9)
    b = a.frobenius_power(1)
    assert b.order() == 2
    assert b.precision == 18
    assert b.coeff_at(6).code == 1


def test_pow_matches_repeated_mul():
    F = base_field(3, 1)
    a = int_poly(F, {0: 2, 1: 1, 4: 2})
    assert (a ** 3).agrees(a * a * a)


def test_series_key_distinguishes():
    F = F2t()
    a = int_poly(F, {0: 1, 5: 1}, precision=30)
    b = int_poly(F, {0: 1, 6: 1}, precision=30)
    key_a, key_b, key_a25 = series_keys([a, b, int_poly(F, {0: 1, 5: 1}, precision=25)])
    assert key_a != key_b
    assert key_a == key_a25


def test_series_keys_read_the_window_every_member_knows():
    # the least precision in the set is P = 20: copies of x known to 40 and
    # to 20 terms share a key, a difference at u^19 separates, one at u^20
    # does not
    F = F2t()
    x = int_poly(F, {1: 1, 7: 1}, precision=40)
    keys = series_keys([x, x.truncate(20), x + F.uniformizer_elt(19),
                        x + F.uniformizer_elt(20)])
    assert keys[0] == keys[1] == keys[3] != keys[2]
    # without the 20-term copy the window is 40 terms, and u^20 separates
    keys = series_keys([x, x + F.uniformizer_elt(20)])
    assert keys[0] != keys[1]
    # exact members key on every stored term
    one = F.one()
    assert len(set(series_keys([one, one + F.uniformizer_elt(500)]))) == 2
    # a member zero on the window keys as exact zero does, and keys order
    zeros = series_keys([F.zero(), F.zero(precision=5), F.uniformizer_elt(7), one])
    assert zeros[0] == zeros[1] == zeros[2] != zeros[3]
    assert sorted(series_keys([F.zero(), F.uniformizer_elt(), one, one + x])) == \
        series_keys([one, one + x, F.uniformizer_elt(), F.zero()])


def test_serialization_roundtrip():
    F = base_field(2, 2)
    a = int_poly(F, {-1: 1, 0: 2, 3: 3}, precision=17)
    doc = a.to_json()
    assert doc["leading_exponent"] == -1
    assert doc["precision"] == 17
    rebuilt = F.element(doc["leading_exponent"],
                        [F.residue.element(c) for c in doc["coeffs"]],
                        doc["precision"])
    assert rebuilt.agrees(a) and rebuilt.precision == a.precision


def test_quotring_arithmetic_and_units():
    R = OModRing(GF(2, 1), 3)
    units = list(R.units())
    assert len(units) == 4
    one = R.one()
    g = R.element([R.residue.one(), R.residue.one()])  # 1 + t
    assert (g * g).codes == bytes([1, 0, 1])  # (1+t)^2 = 1 + t^2 mod t^3
    assert g * g * g * g == one
    assert g * g.inv() == one
    t = R.element([R.residue.zero(), R.residue.one()])
    assert not t.is_unit()
    with pytest.raises(ZeroDivisionError):
        t.inv()


def test_quotring_norm():
    # N: (o'/t^2)^x -> (o/t^2)^x for residue F_4 over F_2: a * Frob(a)
    R4 = OModRing(GF(2, 2), 2)
    R2 = OModRing(GF(2, 1), 2)
    x = R4.residue.gen()
    a = R4.element([R4.residue.one(), x])  # 1 + x t
    n = a.norm_to(GF(2))
    assert n.ring == R2
    # (1 + x t)(1 + x^2 t) = 1 + (x + x^2) t = 1 + t
    assert n.codes == bytes([1, 1])


def test_coefficients_leave_as_fq_elements_of_the_residue_field():
    F = base_field(3, 2)
    a = int_poly(F, {-1: 5, 2: 7}, precision=9)
    for c in (a.leading_coeff(), a.coeff_at(-1), a.coeff_at(0), a.coeff_at(2), a.coeff_at(8)):
        assert isinstance(c, FqElement) and c.spec == F.residue
    assert [a.coeff_at(k).code for k in range(-1, 3)] == [5, 0, 0, 7]
    assert a.leading_coeff() == F.residue.from_int(5)


def test_make_element_rejects_coefficients_of_another_residue_field():
    F = base_field(2, 2)
    with pytest.raises(MixedFields):
        make_element(F, 0, [F.residue.one(), GF(2).one()], None)
    with pytest.raises(MixedFields):
        F.element(3, [GF(3, 2).one()], 10)
    with pytest.raises(MixedFields):
        F.constant(GF(2, 1).one())


# --- the packed kernel against references written on FqElement arithmetic ------
#
# Each reference reads its operands through coeff_at and builds its result
# with make_element, so it does not depend on how coefficients are stored.

PROPERTY_QS = (2, 3, 4, 9, 131, 256)


def field_of_order(q):
    spec = field_with_order(q)
    return base_field(spec.p, spec.f)


def outcome(fn, *args):
    """fn(*args), or the type of the OmodError it raised."""
    try:
        return fn(*args)
    except OmodError as exc:
        return type(exc)


def reference_add(a, b):
    zero = a.field.residue.zero()
    out = dict(known_terms(a))
    for k, c in known_terms(b).items():
        out[k] = out.get(k, zero) + c
    return from_terms(a.field, out, _min_prec(a.precision, b.precision))


def reference_scale(x, c):
    if c.is_zero():
        return x.field.zero(x.precision)
    return from_terms(x.field, {k: v * c for k, v in known_terms(x).items()}, x.precision)


def reference_frobenius_power(x, j):
    pj = x.field.residue.p ** j
    prec = None if x.precision is None else x.precision * pj
    return from_terms(x.field, {k * pj: c ** pj for k, c in known_terms(x).items()}, prec)


def reference_inv(x, precision=None):
    """The recurrence b_k = -b_0 * sum_{j=1..k} a_j b_(k-j), on the same
    number of terms and with the same result precision as inv."""
    F = x.field
    v = x.leading_exponent
    if x.precision is None:
        if len(x.coeffs) == 1 and precision is None:
            return make_element(F, -v, [x.coeff_at(v).inv()], None)
        nterms = (precision + v) if precision is not None else F.default_precision
        out_prec = -v + nterms
    else:
        out_prec = x.precision - 2 * v
        if precision is not None:
            out_prec = min(out_prec, precision)
        nterms = out_prec + v
    nterms = max(nterms, 1)
    a = [x.coeff_at(v + i) for i in range(nterms)]
    b0 = a[0].inv()
    out = [b0]
    for k in range(1, nterms):
        acc = F.residue.zero()
        for j in range(1, k + 1):
            acc = acc + a[j] * out[k - j]
        out.append(-(b0 * acc))
    return make_element(F, -v, out, out_prec)


def reference_pow(x, e):
    """Square and multiply in the same order as __pow__, so that precisions match."""
    if e < 0:
        return reference_pow(reference_inv(x), -e)
    r, b = x.field.one(), x
    while e:
        if e & 1:
            r = schoolbook_mul(r, b)
        b = schoolbook_mul(b, b)
        e >>= 1
    return r


def reference_substitute(x, U):
    """sum_k embed(c_k) U^k over the stored terms of a nonzero x, known up
    to the order of x's unknown tail."""
    target = U.field
    power = reference_pow(U, x.leading_exponent)
    acc = target.zero()
    coeffs = x.coeffs
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            acc = reference_add(acc, reference_scale(power, embed_fq(c, target.residue)))
        if i < len(coeffs) - 1:
            power = schoolbook_mul(power, U)
    if x.precision is not None:
        tail = x.precision * U.order_lower_bound()
        acc = acc.truncate(tail if acc.precision is None else min(tail, acc.precision))
    if acc.is_zero_mod_precision() and acc.precision is not None and acc.precision <= 0:
        raise PrecisionExhausted("substitution lost all significant terms")
    return acc


@st.composite
def series(draw, F, max_len, lowest=-6, highest=6):
    """An exact element, a truncated one (uncertain zeros included), or one
    built directly with stored terms at or beyond its precision."""
    q = F.residue.q
    lo = draw(st.integers(lowest, highest))
    n = draw(st.integers(0, max_len))
    raw = draw(st.binary(min_size=2 * n, max_size=2 * n))
    codes = [raw[i + 1] % q if raw[i] & 1 else 0 for i in range(0, 2 * n, 2)]   # half zeros
    kind = draw(st.sampled_from(("exact", "truncated", "stored beyond precision")))
    if kind == "stored beyond precision":
        stored = bytes(codes).strip(b"\0") or b"\x01"
        return LocalFieldElement(F, lo, stored, lo + draw(st.integers(-3, len(stored) - 1)))
    precision = None if kind == "exact" else lo + draw(st.integers(-3, n + 3))
    return F.element(lo, [F.residue.from_int(c) for c in codes], precision)


@st.composite
def sparse_series(draw, F):
    """A few terms far apart, at exponents up to 70, exact or truncated: the
    shape of the series the torsion automorphisms substitute."""
    q = F.residue.q
    exponents = sorted(draw(st.sets(st.integers(0, 70), min_size=1, max_size=4)))
    terms = {k: draw(st.integers(1, q - 1)) for k in exponents}
    precision = draw(st.none() | st.integers(exponents[-1] - 3, exponents[-1] + 5))
    return int_poly(F, terms, precision)


def property_test(examples):
    return settings(derandomize=True, database=None, max_examples=examples, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


@pytest.mark.parametrize("q", PROPERTY_QS)
@property_test(30)
@given(data=st.data())
def test_packed_mul_matches_schoolbook(q, data):
    F = field_of_order(q)
    a, b = data.draw(series(F, 256)), data.draw(series(F, 256))
    assert a * b == schoolbook_mul(a, b)


@pytest.mark.parametrize("q,length", [(2, 255), (2, 256), (3, 63), (3, 64), (4, 127), (4, 128),
                                      (8, 85), (8, 86), (9, 31), (9, 32), (27, 21), (27, 22),
                                      (32, 51), (32, 52), (125, 5), (125, 6), (243, 12), (243, 13),
                                      (256, 31), (256, 32),
                                      (169, 227), (169, 228), (131, 3), (131, 4)])
def test_mul_at_slot_width_edges(q, length):
    # every digit is p - 1, so the middle product coefficient reaches the slot
    # bound length * f * (p - 1)^2: the first length is the longest that one
    # slot width holds, the second needs the next one
    F = field_of_order(q)
    a = F.element(0, [F.residue.from_int(q - 1)] * length)
    b = F.element(-2, [F.residue.from_int(q - 1)] * length, precision=length + 1)
    for x, y in ((a, a), (a, b)):
        assert x * y == schoolbook_mul(x, y)


@pytest.mark.parametrize("q", [2, 4, 9, 127, 131, 251, 256])
def test_add_at_slot_width_edge(q):
    # every digit is p - 1, so each digit sum is 2(p - 1): one byte holds it
    # up to p = 127, from p = 131 on it needs two
    F = field_of_order(q)
    a = F.element(0, [F.residue.from_int(q - 1)] * 5)
    b = F.element(2, [F.residue.from_int(q - 1)] * 5, precision=9)
    for x, y in ((a, a), (a, b), (b, a)):
        assert x + y == reference_add(x, y)
        assert x - y == reference_add(x, reference_scale(y, -F.residue.one()))


@pytest.mark.parametrize("q", PROPERTY_QS)
@property_test(60)
@given(data=st.data())
def test_packed_add_scale_frobenius_match_references(q, data):
    F = field_of_order(q)
    a, b = data.draw(series(F, 256)), data.draw(series(F, 256))
    c = F.residue.from_int(data.draw(st.integers(0, q - 1)))
    # at p = 131, j = 2 spreads the terms p^2 apart: too long for the reference
    j = data.draw(st.integers(1, 1 if F.residue.p > 100 else 2))
    assert a + b == reference_add(a, b)
    assert a - b == reference_add(a, reference_scale(b, -F.residue.one()))
    assert a.scale(c) == reference_scale(a, c)
    assert a.frobenius_power(j) == reference_frobenius_power(a, j)


@pytest.mark.parametrize("q", PROPERTY_QS)
@property_test(40)
@given(data=st.data())
def test_newton_inv_matches_recurrence(q, data):
    F = field_of_order(q)
    x = data.draw(series(F, 48))
    if x.is_zero_mod_precision():
        x = F.uniformizer_elt(data.draw(st.integers(-6, 6)))
    precision = data.draw(st.none() | st.integers(-4, 70))
    assert outcome(x.inv, precision) == outcome(reference_inv, x, precision)


@pytest.mark.parametrize("q", PROPERTY_QS)
@property_test(30)
@given(data=st.data())
def test_substitute_matches_reference(q, data):
    F = field_of_order(q)
    target = F if q * q > 256 or data.draw(st.booleans()) else unramified_extension(F, 2)
    x = data.draw(series(F, 10) | sparse_series(F))
    if x.is_zero_mod_precision():
        x = F.one()
    U = data.draw(series(target, 6, lowest=1, highest=3))
    if U.is_zero_mod_precision():
        U = target.uniformizer_elt(1)
    assert outcome(substitute, x, U) == outcome(reference_substitute, x, U)


@pytest.mark.parametrize("q", PROPERTY_QS)
@property_test(20)
@given(data=st.data())
def test_substitute_into_one_image_matches_reference(q, data):
    # one image U for a run of series, in draw order: the image's power table
    # is reused, and grown whenever a series reaches past every earlier one
    F = field_of_order(q)
    target = F if q * q > 256 or data.draw(st.booleans()) else unramified_extension(F, 2)
    U = data.draw(series(target, 6, lowest=1, highest=3))
    if U.is_zero_mod_precision():
        U = target.uniformizer_elt(1)
    reach = 0
    for _ in range(data.draw(st.integers(5, 10))):
        x = data.draw(series(F, 10, lowest=-2, highest=reach + 2) | sparse_series(F))
        if x.is_zero_mod_precision():
            # zero below u^prec(x), so zero below u^(prec(x) v(U)) after substitution
            expected = target.zero(None if x.precision is None
                                   else x.precision * U.order_lower_bound())
        else:
            reach = max(reach, x.leading_exponent + len(x.codes))
            expected = outcome(reference_substitute, x, U)
        assert outcome(substitute, x, U) == expected


def test_substitute_into_an_image_with_no_known_term():
    # an image whose stored terms all lie at or beyond its precision (only
    # direct construction makes one): its order bound is its precision, so
    # the power table agrees with the power-by-power evaluation from any
    # starting exponent
    F = field_of_order(3)
    U = LocalFieldElement(F, 1, b"\x01", 0)
    for e0 in (0, 1, 2, 3):
        x = F.uniformizer_elt(e0) + F.uniformizer_elt(e0 + 1)
        assert outcome(substitute, x, U) == outcome(reference_substitute, x, U)


def carries_agreement(subst, x, U, U2, N):
    """The carry-through step of the generator checks in lubintate: images U
    and U2 that agree on N terms give substitutions of x that agree on N
    terms.  V, U truncated after those N terms, is what the two images
    share; x is substituted into V through a fresh (cold) power table, and
    into a copy of V whose table a longer series filled first (warm).  Each
    result must claim at least N terms past its leading exponent and agree
    with x substituted into U and into U2 on every term it claims."""
    V = U.truncate(U.leading_exponent + N)
    warm = LocalFieldElement(V.field, V.leading_exponent, V.codes, V.precision)
    subst(int_poly(x.field, dict.fromkeys(range(x.leading_exponent + len(x.codes) + 8), 1)),
          warm)
    return all(W.agrees(subst(x, U), min_terms=N) and W.agrees(subst(x, U2), min_terms=N)
               for W in (subst(x, V), subst(x, warm)))


def carry_case(F, rng):
    """(x, U, U2, N): U of order 1 to 3, exact or known to N + 16 terms;
    U2 = U + d with d of order exactly v(U) + N; x exact, of order 1 to 6."""
    q = F.residue.q

    def terms(lo, count):
        return {lo: rng.randrange(1, q), **{k: rng.randrange(q) for k in range(lo + 1, lo + count)}}

    N, v = rng.randint(1, 40), rng.randint(1, 3)
    U = int_poly(F, terms(v, N + 16), precision=rng.choice([None, v + N + 16]))
    U2 = U + int_poly(F, terms(v + N, 16))
    return int_poly(F, terms(rng.randint(1, 6), rng.randint(1, 24))), U, U2, N


def claims_one_more_term(x, U):
    W = substitute(x, U)
    if W.precision is None:
        return W
    return LocalFieldElement(W.field, W.leading_exponent, W.codes, W.precision + 1)


@pytest.mark.parametrize("q", (2, 3, 4, 9))
def test_agreeing_images_give_agreeing_substitutions(q):
    # for x of order e0 prime to p, x(U) and x(U2) differ exactly at term N,
    # so a substitution that claims one more term disagrees with one of them
    F, rng = field_of_order(q), random.Random(q)
    for _ in range(30):
        x, U, U2, N = carry_case(F, rng)
        assert carries_agreement(substitute, x, U, U2, N)
        if x.leading_exponent % F.residue.p:
            assert not carries_agreement(claims_one_more_term, x, U, U2, N)


@st.composite
def power_table_image(draw, F):
    """A substitution image of order -3 to 4 that is exact, truncated (with a
    known leading term), or has no known term, with a reach R: its powers
    are compared up to U^(3R).  Truncated images are known to u^(v + R)."""
    q, p = F.residue.q, F.residue.p
    reach = draw(st.integers(1 if p < 100 else p // 3 + 1, 120))
    lead = draw(st.integers(-3, 4))
    codes = [draw(st.integers(1, q - 1))] + draw(st.lists(st.integers(0, q - 1), max_size=5))
    kind = draw(st.sampled_from(("exact", "truncated", "no known term")))
    if kind == "no known term":
        precision = lead - draw(st.integers(0, 3))
        U = LocalFieldElement(F, lead, bytes(codes).rstrip(b"\0"), precision)
        return (F.zero(precision) if draw(st.booleans()) else U), reach
    precision = None if kind == "exact" else lead + reach
    return F.element(lead, [F.residue.from_int(c) for c in codes], precision), reach


@pytest.mark.parametrize("q", (2, 3, 4, 5, 9, 251))
@property_test(25)
@given(data=st.data())
def test_power_table_matches_consecutive_products(q, data):
    # every power the base-p chains form, the intermediate ones included,
    # is the consecutive product, codes and precision both
    F = field_of_order(q)
    U, reach = data.draw(power_table_image(F))
    regular = U.precision is None or U.leading_exponent < U.precision
    exponents = st.integers(-4 if regular and U.codes else 0, 3 * reach)
    table = _PowerTable()
    for k in data.draw(st.lists(exponents, min_size=1, max_size=8)):
        table.power(U, k)
    oracle = RefPowerTable()
    for k, power in table.powers.items():
        assert power == oracle.power(U, k), k


def test_substitution_forms_only_the_powers_on_its_chain():
    # p = 2: U^48 = Frob(U^24) = ... = Frob(U^3), and U^3 = Frob(U) * U
    F = field_of_order(4)
    U = F.element(1, [F.residue.one(), F.residue.from_int(2)], 64)
    substitute(F.uniformizer_elt(48), U)
    assert sorted(U._powers.powers) == [0, 1, 3, 6, 12, 24, 48]


def test_consecutive_powers_of_an_image_with_no_known_term_do_not_recurse():
    F = field_of_order(3)
    for U in (F.zero(2), LocalFieldElement(F, 1, b"\x01", 0)):
        assert _PowerTable().power(U, 3000) == RefPowerTable().power(U, 3000)


def test_a_product_of_terms_beyond_precision_knows_nothing():
    # t + O(t^0) is only known to have order >= 0, so its square is O(t^0),
    # not O(t^1)
    F = field_of_order(3)
    U = LocalFieldElement(F, 1, b"\x01", 0)
    assert U.order_lower_bound() == 0
    square = U * U
    assert square.is_zero_mod_precision() and square.precision == 0


def test_inv_raises_precision_exhausted_when_the_leading_term_is_past_the_precision():
    # the stored term at u^5 lies beyond the known terms below u^3
    x = LocalFieldElement(base_field(3, 1), 5, b"\x01", 3)
    with pytest.raises(PrecisionExhausted, match=r"u\^5 unknown \(precision 3\)"):
        x.inv()
