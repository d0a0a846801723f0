"""Compare two traced runs of the omod benchmark layer by layer.

    python3 perfbench/compare.py BEFORE.json AFTER.json

Each file is a trace written by `perfbench/run.py --trace 1` (one workload
or all of them); a traced run makes one pass per workload.  For every
workload in either file, prints each layer's calls and self time before and
after, and the change, largest self-time change first; then the work
counters the same way.  A
performance change can use it to show where its saving appears.
"""

from __future__ import annotations

import argparse
import json
import sys


def flatten(trace):
    """{layer: (calls, self_s)} and {counter: value} of one traced pass."""
    layers = {name: (row.get("calls", 0), row.get("self_s", 0.0))
              for name, row in trace["layers"].items()}
    counters = dict(trace["counters"], **trace.get("maxima", {}))
    return layers, counters


def compare(before, after):
    """Lines of the comparison of two trace documents."""
    lines = []
    empty = {"layers": {}, "counters": {}}
    for workload in sorted(set(before["workloads"]) | set(after["workloads"])):
        old_layers, old_counters = flatten(before["workloads"].get(workload, empty))
        new_layers, new_counters = flatten(after["workloads"].get(workload, empty))
        lines.append("== %s" % workload)
        lines.append("%-44s %14s %14s %12s %10s %10s %10s"
                     % ("layer", "calls before", "calls after", "d calls",
                        "self_s bef", "self_s aft", "d self_s"))
        rows = []
        for name in set(old_layers) | set(new_layers):
            oc, os_ = old_layers.get(name, (0, 0.0))
            nc, ns = new_layers.get(name, (0, 0.0))
            rows.append((abs(ns - os_), name, oc, nc, os_, ns))
        for _, name, oc, nc, os_, ns in sorted(rows, key=lambda r: (-r[0], r[1])):
            lines.append("%-44s %14.0f %14.0f %+12.0f %10.4f %10.4f %+10.4f"
                         % (name, oc, nc, nc - oc, os_, ns, ns - os_))
        for name in sorted(set(old_counters) | set(new_counters)):
            old, new = old_counters.get(name, 0), new_counters.get(name, 0)
            lines.append("%-44s %14.0f %14.0f %+12.0f" % (name, old, new, new - old))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    print("\n".join(compare(before, after)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
