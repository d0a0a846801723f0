"""Shared helpers for the polygon-versus-construction oracle suites."""

import random

from omod.additive import AdditivePolynomial
from omod.errors import ExtensionRequired, NoConvergence, PrecisionExhausted
from omod.tower import embed, find_integral_roots, unramified_extension

from tower_reference import ramified_extension_by_relation

# coefficient orders reach 3, so root orders reach 3 * 21 = 63 in the tame
# splitting fields; the working precision has to clear that
ORACLE_PRECISION = 72
TAME_RAMIFICATION = 21     # covers every odd slope denominator for degree <= 8
MAX_RESIDUE_DEGREE = 8


def int_poly(field, pairs, precision=None):
    """Element of field from {exponent: residue-integer} data."""
    if not pairs:
        return field.zero(precision)
    residue = field.residue
    lo = min(pairs)
    return field.element(lo, [residue.from_int(pairs.get(k, 0))
                              for k in range(lo, max(pairs) + 1)], precision)


def random_additive(field, rng, max_qexp=3, max_order=3):
    """Random separable additive polynomial over F_2((t)) with coefficient
    orders <= max_order and degree <= 2^max_qexp."""
    top = rng.randrange(1, max_qexp + 1)
    coeffs = []
    for i in range(top + 1):
        if i == 0 or i == top:
            present = True
        else:
            present = rng.random() < 0.6
        if not present:
            coeffs.append(field.zero())
            continue
        order = rng.randrange(0, max_order + 1)
        length = rng.randrange(1, 3)
        pairs = {order: 1}
        for _ in range(length - 1):
            pairs[order + 1 + rng.randrange(3)] = rng.randrange(2)
        coeffs.append(int_poly(field, pairs))
    return AdditivePolynomial(field, tuple(coeffs), 1)


def splitting_field(F, k, precision=ORACLE_PRECISION):
    """F_{2^k}((pi)) with t = pi^21 over the shared root F: tame totally
    ramified of degree 21 over the degree-k unramified enlargement."""
    base = unramified_extension(F, k) if k > 1 else F

    def relation(fld, _cur):
        return fld.uniformizer_elt() ** TAME_RAMIFICATION

    L, _ = ramified_extension_by_relation(base, TAME_RAMIFICATION, relation,
                                          precision=precision, uniformizer="pi")
    return L


def embed_additive(P, L):
    """P with its coefficients embedded into L."""
    return AdditivePolynomial(
        L, tuple(embed(c, L) if not c.is_exact_zero() else L.zero() for c in P.coeffs),
        P.qexp)


def construct_roots(P, fields):
    """Try the splitting candidates in increasing residue degree; return
    (field, roots) on full success, None when the polynomial is wild."""
    expected = sum(seg.length for seg in P.newton_polygon_of_roots().segments)
    expected += 1  # the zero root of a separable additive polynomial
    for k in sorted(fields):
        L = fields[k]
        try:
            roots = find_integral_roots(embed_additive(P, L), L.zero())
        except (ExtensionRequired, NoConvergence, PrecisionExhausted):
            continue
        collapsed = sum(1 for r in roots
                        if r.is_zero_mod_precision() and not r.is_exact_zero())
        if collapsed == 0 and len(roots) == expected:
            return L, roots
    return None


def polygon_versus_towers(seed, target_samples=100, max_attempts=600):
    """Run the oracle comparison; returns (constructed, wild, attempts).
    Raises AssertionError on any multiset or evaluation mismatch."""
    from fractions import Fraction

    from omod.series import base_field

    rng = random.Random(seed)
    F = base_field(2, 1, precision=ORACLE_PRECISION)
    fields = {k: splitting_field(F, k) for k in range(1, MAX_RESIDUE_DEGREE + 1)}
    constructed = wild = attempts = 0
    while constructed < target_samples and attempts < max_attempts:
        attempts += 1
        P = random_additive(F, rng)
        result = construct_roots(P, fields)
        if result is None:
            wild += 1
            continue
        L, roots = result
        e = L.absolute_ramification
        got = sorted(Fraction(r.order(), e) for r in roots if r.is_known_nonzero())
        want = sorted(P.newton_polygon_of_roots().root_valuation_list())
        assert got == want, "multiset mismatch for %r: %s vs %s" % (P, got, want)
        PL = embed_additive(P, L)
        for r in roots:
            residual = PL(r)
            assert residual.is_zero_mod_precision() or \
                residual.order_lower_bound() >= 15 * e // TAME_RAMIFICATION, \
                "root fails to vanish for %r" % (P,)
        constructed += 1
    return constructed, wild, attempts
