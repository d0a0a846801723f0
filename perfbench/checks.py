"""Closed forms and output checkers for the omod benchmark workloads.

Every expected value is computed here from (q, n, m); none is read from omod
or from a stored copy of an earlier run.  Each checker takes plain data
(numbers, dicts, JSON documents) and returns a list of problems, empty when
the output is right, so the tests can hand it perturbed results.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def unit_group_order(q, m):
    """|(o/t^m)^x| = (q-1) q^(m-1)."""
    return (q - 1) * q ** (m - 1)


def unit_keys(q, m):
    """The units of F_q[t]/t^m as digit tuples (a_0, ..., a_{m-1}), a_0 != 0."""
    return {key for key in itertools.product(range(q), repeat=m) if key[0] != 0}


def primitive_valuation(q, n, m):
    """v of a primitive level-m torsion point: 1/((q^n-1) q^(n(m-1)))."""
    return Fraction(1, (q ** n - 1) * q ** (n * (m - 1)))


def gl_order(q, n, m):
    """|GL_n(o/t^m)| = q^((m-1) n^2) * prod_{i<n} (q^n - q^i)."""
    order = q ** ((m - 1) * n * n)
    for i in range(n):
        order *= q ** n - q ** i
    return order


def representative_count(q, n, m):
    """Number of unit-orbit representatives of primitive vectors."""
    return (q ** n - 1) * q ** (n * (m - 1)) // unit_group_order(q, m)


def _expect(problems, what, got, want):
    if got != want:
        problems.append("%s: got %r, expected %r" % (what, got, want))


# --- character ---------------------------------------------------------------------


def check_tower_levels(q, m, degrees, valuations):
    """degrees[k-1] = [F_k : F] = (q-1) q^(k-1) and valuations[k-1] = v(lam_k)
    = 1/((q-1) q^(k-1)) as an exact Fraction, for k = 1..m."""
    problems = []
    _expect(problems, "level count", len(degrees), m)
    for k, (deg, val) in enumerate(zip(degrees, valuations), start=1):
        _expect(problems, "degree of level %d" % k, deg, unit_group_order(q, k))
        if not isinstance(val, Fraction):
            problems.append("v(lam_%d) = %r is not an exact Fraction" % (k, val))
        _expect(problems, "v(lam_%d)" % k, val, primitive_valuation(q, 1, k))
    return problems


def check_character_table(q, m, table_keys, tower_degree):
    """The table has one row per unit of o/t^m, keyed exactly by the units."""
    problems = []
    order = unit_group_order(q, m)
    _expect(problems, "tower degree", tower_degree, order)
    _expect(problems, "table size", len(table_keys), order)
    keys = {tuple(k) for k in table_keys}
    if keys != unit_keys(q, m):
        problems.append("table keys are not the units of o/t^%d: %r"
                        % (m, sorted(keys ^ unit_keys(q, m))[:4]))
    return problems


def check_restriction(consistent):
    return [] if consistent is True else ["restriction to level m-1 is not compatible"]


# --- verify-cli --------------------------------------------------------------------

def expected_rows(q, n, m):
    """(check, specialization) -> computed value the closed forms give, or
    None where only a property is checked."""
    order = unit_group_order(q, m)
    return {
        ("character", None): {"group_order": order, "tower_degree": order,
                              "restriction_compatible": True},
        ("valuations", None): str(primitive_valuation(q, n, m)),
        ("product", None): {"rep_count": representative_count(q, n, m),
                            "valuation_sum": str(Fraction(1, order)),
                            "ratio_valuation": "0"},
        ("determinant", None): {"cases_verified": (q ** n - 1) * q ** (n * (m - 1))},
        ("level-count", None): gl_order(q, n, m),
        ("kernel-height", "etale+closed"): {"etale": [0, 0], "closed_fibre": [n, n]},
        ("kernel-height", "unit-coefficient"): [1, 1],
        ("pi0", None): None,
        ("h0", None): {"characters": order, "distinct_on_generators": order},
    }


# (q, n, m) at which omod skips the unit-coefficient kernel-height row: its
# mixed splitting is implemented for q = 2, n = 2 only
UNIT_COEFFICIENT_SKIPPED = {(3, 2, 1), (2, 3, 1)}


def check_verify_report(q, n, m, exit_code, doc):
    """Check one `omod verify --output json` run of all suites.

    Returns (problems, rows): problems of the run as a whole (exit code,
    failure count, unexpected rows) and, for each expected row key,
    (status, row problems) with status "pass", "skipped" or "fail".  At the
    configurations in UNIT_COEFFICIENT_SKIPPED the unit-coefficient
    kernel-height row may be skipped; it is then counted as skipped, neither
    passed nor failed.  A skip anywhere else fails the row."""
    problems = []
    _expect(problems, "exit code", exit_code, 0)
    _expect(problems, "failures", doc.get("failures"), 0)
    expected = expected_rows(q, n, m)
    rows = {key: ("fail", ["missing result row"]) for key in expected}
    seen = set()
    for res in doc.get("results", []):
        key = (res.get("check"), res.get("parameters", {}).get("specialization"))
        if key not in expected or key in seen:
            problems.append("unexpected result row %r" % (key,))
            continue
        seen.add(key)
        status, computed = res.get("status"), res.get("computed")
        if (key == ("kernel-height", "unit-coefficient") and status == "skipped"
                and (q, n, m) in UNIT_COEFFICIENT_SKIPPED):
            rows[key] = ("skipped", [])
            continue
        bad = [] if status == "pass" else ["status %r" % (status,)]
        if key == ("pi0", None):
            bad += _pi0_row_problems(q, m, computed)
        elif computed != expected[key]:
            bad.append("computed %r, closed form %r" % (computed, expected[key]))
        rows[key] = ("fail" if bad else "pass", bad)
    return problems, rows


def _pi0_row_problems(q, m, computed):
    if not isinstance(computed, dict):
        return ["computed %r is not a dict" % (computed,)]
    problems = []
    order = unit_group_order(q, m)
    _expect(problems, "group order", computed.get("group_order"), order)
    _expect(problems, "nrd surjective", computed.get("nrd_surjective"), True)
    _expect(problems, "product of invariant factors",
            math.prod(computed.get("invariant_factors", [])), order)
    return problems


# --- tower-cache -------------------------------------------------------------------


def check_cache_key(doc, p, f, n, m, precision):
    """The saved document is keyed by exactly the tower it holds."""
    want = {"p": p, "f": f, "q": p ** f, "n": n, "m": m, "precision": precision}
    problems = []
    _expect(problems, "cache key", doc.get("key"), want)
    _expect(problems, "stored levels", len(doc.get("levels", [])), m)
    return problems


def check_loaded_series(fresh, loaded):
    """Each loaded level series equals the fresh one to its stored precision,
    coefficient by coefficient.  Both arguments are lists of the levels'
    LocalFieldElement.to_json() documents (None for a degree-one level)."""
    problems = []
    _expect(problems, "loaded level count", len(loaded), len(fresh))
    for k, (a, b) in enumerate(zip(fresh, loaded), start=1):
        if a is None or b is None:
            _expect(problems, "level %d presence" % k, b, a)
            continue
        _expect(problems, "level %d precision" % k, b["precision"], a["precision"])
        _expect(problems, "level %d leading exponent" % k,
                b["leading_exponent"], a["leading_exponent"])
        ca, cb = a["coeffs"], b["coeffs"]
        for i in range(max(len(ca), len(cb))):
            x = ca[i] if i < len(ca) else None
            y = cb[i] if i < len(cb) else None
            if x != y:
                problems.append("level %d coefficient of u^%d: loaded %r, fresh %r"
                                % (k, a["leading_exponent"] + i, y, x))
                break
    return problems


def check_recursion(residual_orders, precision):
    """[t](lam_k) - lam_(k-1) is zero to working precision at every level:
    residual_orders[k-1] is the order lower bound of that residual."""
    return ["level %d residual has order %r < precision %d" % (k, o, precision)
            for k, o in enumerate(residual_orders, start=1) if o < precision]


# --- components --------------------------------------------------------------------


def check_pi0_action(q, m, order, invariant_factors, nrd_surjective, det_pairs,
                     nrd_pairs, pair_samples):
    problems = []
    want = unit_group_order(q, m)
    _expect(problems, "group order", order, want)
    _expect(problems, "product of invariant factors", math.prod(invariant_factors), want)
    _expect(problems, "nrd surjective", nrd_surjective, True)
    if det_pairs < pair_samples:
        problems.append("det pairs %d < sample size %d" % (det_pairs, pair_samples))
    if nrd_pairs < pair_samples:
        problems.append("nrd pairs %d < sample size %d" % (nrd_pairs, pair_samples))
    return problems


def check_h0(q, m, characters_on_generators):
    """One row per character, all distinct on the generators."""
    problems = []
    want = unit_group_order(q, m)
    _expect(problems, "character count", len(characters_on_generators), want)
    _expect(problems, "distinct characters",
            len({tuple(c) for c in characters_on_generators}), want)
    return problems
