"""Each workload's checker accepts the right output and reports a perturbed one."""

import copy
from fractions import Fraction

import checks


# --- closed forms -------------------------------------------------------------------


def test_closed_forms_match_small_enumerations():
    assert checks.unit_keys(2, 2) == {(1, 0), (1, 1)}
    assert len(checks.unit_keys(4, 2)) == checks.unit_group_order(4, 2) == 12
    assert checks.gl_order(2, 2, 1) == 6          # |GL_2(F_2)|
    assert checks.gl_order(2, 2, 2) == 96
    assert checks.primitive_valuation(2, 2, 2) == Fraction(1, 12)
    assert checks.representative_count(2, 2, 2) == 6


# --- character ----------------------------------------------------------------------


def _good_levels(q, m):
    degrees = [(q - 1) * q ** (k - 1) for k in range(1, m + 1)]
    return degrees, [Fraction(1, d) for d in degrees]


def test_character_checks_accept_closed_forms():
    degrees, vals = _good_levels(3, 2)
    assert checks.check_tower_levels(3, 2, degrees, vals) == []
    assert checks.check_character_table(3, 2, checks.unit_keys(3, 2), 6) == []
    assert checks.check_restriction(True) == []


def test_character_group_order_off_by_one_fails():
    keys = checks.unit_keys(3, 2)
    assert checks.check_character_table(3, 2, keys, 7)
    assert checks.check_character_table(3, 2, list(keys)[:-1], 6)


def test_character_table_keys_must_be_units():
    keys = set(checks.unit_keys(3, 2))
    keys.remove((1, 0))
    keys.add((0, 1))                   # a non-unit, same table size
    assert checks.check_character_table(3, 2, keys, 6)


def test_changed_valuation_fails():
    degrees, vals = _good_levels(4, 2)
    vals[-1] = Fraction(1, 13)
    assert checks.check_tower_levels(4, 2, degrees, vals)
    degrees, vals = _good_levels(4, 2)
    vals[-1] = 1 / 12                  # right value, not exact
    assert checks.check_tower_levels(4, 2, degrees, vals)


def test_restriction_failure_is_reported():
    assert checks.check_restriction(False)


# --- verify-cli ---------------------------------------------------------------------


def _report(q, n, m):
    """The report the closed forms predict, all rows passing."""
    results = []
    for (check, spec), computed in checks.expected_rows(q, n, m).items():
        params = {"q": q, "n": n, "m": m}
        if spec:
            params["specialization"] = spec
        if check == "pi0":
            order = checks.unit_group_order(q, m)
            computed = {"group_order": order, "nrd_surjective": True,
                        "invariant_factors": [order] if order > 1 else []}
        results.append({"check": check, "parameters": params, "computed": computed,
                        "status": "pass"})
    return {"results": results, "failures": 0}


def _row(doc, check, spec=None):
    return next(r for r in doc["results"] if r["check"] == check
                and r["parameters"].get("specialization") == spec)


def test_verify_report_accepts_closed_forms():
    problems, rows = checks.check_verify_report(2, 2, 2, 0, _report(2, 2, 2))
    assert problems == []
    assert {status for status, _ in rows.values()} == {"pass"}


def test_verify_report_counts_unit_coefficient_row_as_skipped():
    doc = _report(3, 2, 1)
    row = _row(doc, "kernel-height", "unit-coefficient")
    row["status"], row["computed"] = "skipped", "not computed: no residue root"
    problems, rows = checks.check_verify_report(3, 2, 1, 0, doc)
    assert problems == []
    assert rows[("kernel-height", "unit-coefficient")] == ("skipped", [])


def test_verify_report_unit_coefficient_skip_fails_where_it_is_computed():
    for q, n, m in ((2, 2, 2), (2, 2, 1)):
        doc = _report(q, n, m)
        row = _row(doc, "kernel-height", "unit-coefficient")
        row["status"], row["computed"] = "skipped", "not computed: no residue root"
        _, rows = checks.check_verify_report(q, n, m, 0, doc)
        assert rows[("kernel-height", "unit-coefficient")][0] == "fail"


def test_verify_report_fail_status_fails_the_row():
    doc = _report(2, 2, 1)
    _row(doc, "valuations")["status"] = "fail"
    doc["failures"] = 1
    problems, rows = checks.check_verify_report(2, 2, 1, 1, doc)
    assert problems                              # exit code and failure count
    assert rows[("valuations", None)][0] == "fail"


def test_verify_report_group_order_off_by_one_fails():
    doc = _report(2, 2, 2)
    _row(doc, "level-count")["computed"] += 1
    _row(doc, "pi0")["computed"]["group_order"] += 1
    _, rows = checks.check_verify_report(2, 2, 2, 0, doc)
    assert rows[("level-count", None)][0] == "fail"
    assert rows[("pi0", None)][0] == "fail"


def test_verify_report_changed_valuation_fails():
    doc = _report(2, 3, 1)
    _row(doc, "valuations")["computed"] = "1/8"
    _, rows = checks.check_verify_report(2, 3, 1, 0, doc)
    assert rows[("valuations", None)][0] == "fail"


def test_verify_report_missing_and_extra_rows():
    doc = _report(2, 2, 1)
    doc["results"] = [r for r in doc["results"] if r["check"] != "h0"]
    doc["results"].append(copy.deepcopy(doc["results"][0]))
    problems, rows = checks.check_verify_report(2, 2, 1, 0, doc)
    assert problems
    assert rows[("h0", None)][0] == "fail"


# --- tower-cache --------------------------------------------------------------------


SERIES = [None,
          {"leading_exponent": 3, "precision": 64, "coeffs": [[1], [0], [2], [1]]},
          {"leading_exponent": 3, "precision": 64, "coeffs": [[2], [2], [0]]}]


def test_loaded_series_equal_to_fresh_passes():
    assert checks.check_loaded_series(SERIES, copy.deepcopy(SERIES)) == []


def test_loaded_series_with_one_coefficient_changed_fails():
    loaded = copy.deepcopy(SERIES)
    loaded[2]["coeffs"][1] = [1]
    problems = checks.check_loaded_series(SERIES, loaded)
    assert len(problems) == 1 and "u^4" in problems[0]


def test_loaded_series_with_other_precision_or_length_fails():
    loaded = copy.deepcopy(SERIES)
    loaded[1]["precision"] = 63
    assert checks.check_loaded_series(SERIES, loaded)
    loaded = copy.deepcopy(SERIES)
    loaded[1]["coeffs"].append([1])
    assert checks.check_loaded_series(SERIES, loaded)
    assert checks.check_loaded_series(SERIES, SERIES[:2])


def test_recursion_residual_below_precision_fails():
    assert checks.check_recursion([70, 66, 64], 64) == []
    assert checks.check_recursion([70, 48, 64], 64)


def test_cache_key_must_match_the_tower():
    doc = {"key": {"p": 3, "f": 1, "q": 3, "n": 1, "m": 3, "precision": 64},
           "levels": [{}, {}, {}]}
    assert checks.check_cache_key(doc, 3, 1, 1, 3, 64) == []
    assert checks.check_cache_key(doc, 3, 1, 1, 2, 64)


def test_tower_cache_group_order_off_by_one_fails():
    degrees, vals = _good_levels(2, 3)
    degrees[2] += 1
    assert checks.check_tower_levels(2, 3, degrees, vals)


# --- components ---------------------------------------------------------------------


def test_components_checks_accept_closed_forms():
    assert checks.check_pi0_action(4, 2, 12, [6, 2], True, 216, 200, 200) == []
    assert checks.check_h0(3, 2, [[k] for k in range(6)]) == []


def test_components_group_order_off_by_one_fails():
    assert checks.check_pi0_action(4, 2, 13, [6, 2], True, 216, 200, 200)
    assert checks.check_pi0_action(4, 2, 12, [6, 3], True, 216, 200, 200)
    assert checks.check_h0(3, 2, [[k] for k in range(5)])


def test_components_property_failures():
    assert checks.check_pi0_action(3, 2, 6, [6], False, 209, 200, 200)
    assert checks.check_pi0_action(3, 2, 6, [6], True, 199, 200, 200)
    assert checks.check_h0(3, 2, [[k % 5] for k in range(6)])   # two coincide
