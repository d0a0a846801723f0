"""Oracle suites: Newton polygons against brute-force root construction in
explicitly built splitting towers, and precision-soundness metamorphic runs.

The splitting towers reachable by declared-uniformizer relations are the
tamely ramified ones (odd ramification over F_2) with residue enlargements;
the sample stream is filtered to that class and the test insists on at least
100 constructed samples.  Wildly ramified splitting fields (even slope
denominators) have no pure-uniformizer presentation, so such samples are
counted and excluded.
"""

import random

from omod.additive import AdditivePolynomial
from omod.errors import ExtensionRequired, NoConvergence, PrecisionExhausted
from omod.series import base_field, series_keys
from omod.tower import find_integral_roots

from oracle_utils import (embed_additive, int_poly, polygon_versus_towers, random_additive,
                          splitting_field)


def test_newton_polygon_versus_splitting_towers():
    constructed, wild, attempts = polygon_versus_towers(seed=20260808)
    assert constructed >= 100, (
        "only %d constructible samples out of %d attempts (%d wild)"
        % (constructed, attempts, wild))


def test_precision_soundness_root_search():
    # the same roots, recomputed at doubled precision, agree on shared terms;
    # precision must exceed ramification x the largest root valuation, so
    # coefficient orders are capped at 1 here
    rng = random.Random(555)
    F_lo = base_field(2, 1, precision=30)
    F_hi = base_field(2, 1, precision=60)
    lo = splitting_field(F_lo, 2, precision=30)
    hi = splitting_field(F_hi, 2, precision=60)
    done = 0
    while done < 12:
        P_lo = random_additive(F_lo, rng, max_qexp=2, max_order=1)
        # rebuild the same polynomial over the high-precision copy
        coeff_data = []
        for c in P_lo.coeffs:
            if c.is_zero_mod_precision():
                coeff_data.append({})
            else:
                coeff_data.append({k: c.coeff_at(k).code
                                   for k in range(c.leading_exponent,
                                                  c.leading_exponent + len(c.coeffs))})
        P_hi = AdditivePolynomial(
            F_hi, tuple(int_poly(F_hi, d) if d else F_hi.zero()
                        for d in coeff_data), 1)
        try:
            roots_lo = find_integral_roots(embed_additive(P_lo, lo), lo.zero())
            roots_hi = find_integral_roots(embed_additive(P_hi, hi), hi.zero())
        except (ExtensionRequired, NoConvergence, PrecisionExhausted):
            continue
        # every term both runs know must agree
        keys = series_keys(roots_lo + roots_hi)
        assert sorted(keys[:len(roots_lo)]) == sorted(keys[len(roots_lo):])
        done += 1
