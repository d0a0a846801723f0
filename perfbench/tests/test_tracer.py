"""The tracer's span arithmetic, and its wrappers on the real omod."""

import json
import os

import pytest

import compare
import metrics
import tracer
from tracer import Tracer, summarize_spans

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_self_time_subtracts_direct_children():
    # A [0,10] -> B [1,4], C [5,9] -> B [6,8]
    spans = [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0), ("C", 5.0, 9.0, 0),
             ("B", 6.0, 8.0, 2)]
    out = summarize_spans(spans)
    assert out["A"] == {"calls": 1, "self_s": 3.0, "total_s": 10.0}
    assert out["B"] == {"calls": 2, "self_s": 5.0, "total_s": 5.0}
    assert out["C"] == {"calls": 1, "self_s": 2.0, "total_s": 4.0}


def test_recursion_counts_total_once_and_self_per_level():
    # D [0,8] -> D [1,5] -> D [2,3]; then a sibling tree E [9,10] -> D [9.5,10]
    spans = [("D", 0.0, 8.0, -1), ("D", 1.0, 5.0, 0), ("D", 2.0, 3.0, 1),
             ("E", 9.0, 10.0, -1), ("D", 9.5, 10.0, 3)]
    out = summarize_spans(spans)
    assert out["D"]["calls"] == 4
    assert out["D"]["total_s"] == pytest.approx(8.5)
    assert out["D"]["self_s"] == pytest.approx(4.0 + 3.0 + 1.0 + 0.5)
    assert out["E"]["self_s"] == pytest.approx(0.5)


def test_self_times_add_up_to_root_durations():
    spans = [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0), ("C", 4.5, 9.5, 0),
             ("D", 5.0, 6.0, 2), ("D", 7.0, 9.0, 2), ("A", 11.0, 12.0, -1)]
    out = summarize_spans(spans)
    assert sum(r["self_s"] for r in out.values()) == pytest.approx(11.0)


def test_mul_products_counts_products_below_precision():
    from omod.series import base_field

    F = base_field(2, 1, precision=64)
    a = F.element(0, [F.residue.one(), F.residue.zero(), F.residue.one()], 10)
    b = F.element(1, [F.residue.one()] * 4, None)
    # a has two nonzero coefficients (u^0, u^2), b four (u^1..u^4); the
    # product is known below 10 + 1 = 11, so every product lands
    assert tracer.mul_products(a, b, (a * b).precision) == (8, 8)
    # known below 4: u^0 * u^1..u^3 (3) and u^2 * u^1 (1)
    assert tracer.mul_products(a, b, 4) == (8, 4)


def test_installed_tracer_counts_calls_and_restores_omod():
    import omod
    from omod import cli, lubintate, series

    original_mul = series.LocalFieldElement.__mul__
    original_build = lubintate.build_tower
    original_runner = cli.RUNNERS["character"]
    t = Tracer()
    t.install(omod)
    try:
        assert cli.build_tower is lubintate.build_tower is not original_build
        assert cli.RUNNERS["character"] is not original_runner
        F = series.base_field(3, 1, precision=16)
        x = F.element(1, [F.residue.one(), F.residue.one()], 16)
        x * x                                   # not recording: not counted
        with t.recording():
            lt = lubintate.build_tower(F, 1, 16)
            x * x
        summary = t.summary()
        layers, counters = summary["layers"], summary["counters"]
        assert layers["lubintate.build_tower"]["calls"] == 1
        assert layers["series.mul"]["calls"] >= 1
        assert counters["series.mul.coeff_products"] >= 4
        assert layers["finitefield.mul"]["calls"] >= 4
        assert lt.degree() == 2
        values = metrics.per_layer_values(summary, 1.0)
        assert set(values) == set(metrics.PER_LAYER)
        assert values["lubintate.build_tower.calls"] == 1
    finally:
        t.uninstall()
    assert series.LocalFieldElement.__mul__ is original_mul
    assert lubintate.build_tower is cli.build_tower is original_build
    assert cli.RUNNERS["character"] is original_runner


def test_compare_reports_per_layer_changes():
    before = {"workloads": {"w": {"layers": {
        "series.mul": {"calls": 10, "self_s": 2.0}}, "counters": {"c": 10}}}}
    after = {"workloads": {"w": {"layers": {
        "series.mul": {"calls": 10, "self_s": 0.5}}, "counters": {"c": 5}}}}
    lines = compare.compare(before, after)
    mul = next(line for line in lines if line.startswith("series.mul"))
    assert mul.split()[1:] == ["10", "10", "+0", "2.0000", "0.5000", "-1.5000"]


def test_benchmark_json_names_the_metrics_the_run_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    import run

    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
