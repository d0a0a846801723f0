"""Metric names and units of the omod benchmark, and the per-layer values
read from a trace summary.

Per-layer names are `<module>.<function>.<stat>`: `calls` is an exact count,
`self_s` a span's time minus the time its child spans cover, `total_s` the
whole span (outermost call only when the function recurses).  A traced run
makes exactly one pass in a fresh process, so every per-layer value is that
of one pass, and counts do not depend on how many passes the host's speed
would fit into a run.
"""

from __future__ import annotations

END_TO_END = {
    "wall_s": "s",        # wall time of the timed omod calls of one pass
    "cpu_s": "s",         # process CPU time of the same calls
    "setup_s": "s",       # process start to the first case being ready
    "peak_rss_mb": "MB",  # peak resident memory of the workload's process
}


def _stats(layer, *stats):
    return {"%s.%s" % (layer, s): ("count" if s == "calls" else "s") for s in stats}


PER_LAYER = {
    **_stats("finitefield.mul", "calls"),
    **_stats("finitefield.add", "calls"),
    **_stats("finitefield.inv", "calls"),
    **_stats("series.mul", "calls", "self_s"),
    "series.mul.coeff_products": "count",
    "series.mul.max_terms": "count",
    "series.mul.useful_ratio": "ratio",
    **_stats("series.add", "calls", "self_s"),
    **_stats("series.inv", "calls", "self_s"),
    **_stats("series.frobenius_power", "calls", "self_s"),
    **_stats("series.agrees", "calls", "self_s"),
    **_stats("series.substitute", "calls", "self_s"),
    **_stats("additive.evaluate", "calls", "self_s"),
    **_stats("additive.compose", "calls", "self_s"),
    **_stats("newton.newton_polygon", "calls", "self_s"),
    **_stats("tower.find_integral_roots", "calls", "self_s"),
    **_stats("tower.embed", "calls", "self_s"),
    **_stats("tower.apply_automorphism", "calls", "self_s"),
    **_stats("tower.ramified_extension_by_relation", "calls", "self_s"),
    "tower.relation_iterations": "count",
    **_stats("formalmod.multiply_by", "calls", "self_s"),
    **_stats("formalmod.torsion", "self_s"),
    **_stats("formalmod.count_level_structures", "self_s"),
    **_stats("formalmod.kernel_rank", "self_s"),
    **_stats("lubintate.build_tower", "calls", "total_s"),
    **_stats("lubintate.verify_character", "self_s"),
    **_stats("lubintate.verify_determinant_character", "self_s"),
    **_stats("lubintate.verify_product_formula", "self_s"),
    **_stats("quotring.mul", "calls"),
    **_stats("quotring.add", "calls"),
    **_stats("pi0.pi0_action_table", "self_s"),
    **_stats("pi0.h0_decomposition", "self_s"),
    **_stats("pi0.reduced_norm", "calls", "self_s"),
    **_stats("pi0.matrix_determinant", "calls", "self_s"),
    **_stats("cache.save_tower", "total_s"),
    **_stats("cache.load_tower", "total_s"),
    "cache.bytes_written": "B",
    **_stats("report.dumps_canonical", "total_s"),
    "report.bytes_out": "B",
    **{"cli.run_%s.total_s" % suite: "s" for suite in (
        "character", "valuations", "product", "determinant", "level_count",
        "kernel_height", "pi0", "h0")},
    "trace.wall_s": "s",  # wall time of the timed calls of the traced pass
}

# layers made of several traced functions
ALIASES = {"formalmod.torsion": ("formalmod.torsion_points",
                                 "formalmod.orbit_torsion_from_generator")}


def per_layer_values(summary, traced_wall_s):
    """{metric: value} for every PER_LAYER name, from Tracer.summary()."""
    layers, counters = summary["layers"], summary["counters"]
    out = {}
    for name in PER_LAYER:
        layer, stat = name.rsplit(".", 1)
        if name == "series.mul.useful_ratio":
            made = counters.get("series.mul.coeff_products", 0)
            out[name] = counters.get("series.mul.useful_products", 0) / made if made else 0.0
        elif name == "series.mul.max_terms":
            out[name] = summary["maxima"].get(name, 0)
        elif name == "trace.wall_s":
            out[name] = traced_wall_s
        elif stat in ("calls", "self_s", "total_s"):
            parts = ALIASES.get(layer, (layer,))
            out[name] = sum(layers.get(part, {}).get(stat, 0) for part in parts)
        else:
            out[name] = counters.get(name, 0)
    return out
