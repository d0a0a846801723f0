"""The omod benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 1]

Each workload runs in a fresh single-threaded process (a closed loop: one
caller, each omod call waits for the one before).  --trace 0 reports the
end-to-end metrics of an untraced run: wall and CPU time are medians over
the whole passes of at least S seconds of timed work, set-up time the median
over several fresh processes, each timed from its start to "ready".
--trace 1 reports the per-layer metrics of one traced pass and writes its
trace to perfbench/out/.  S defaults to `run_seconds` in BENCHMARK.json.

With --workload, the last line of output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  Without it, every workload runs
untraced and, with --trace 1, traced as well, and the tracing overhead is
printed.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("character", "verify-cli", "tower-cache", "components")
SETUP_PROBES = 6        # extra set-up-only processes per run
RUN_DEADLINE_S = 170    # the whole run, all processes included


class BenchError(Exception):
    pass


def _child_env():
    env = dict(os.environ)
    env.pop("OMOD_CACHE_DIR", None)    # `omod verify` must not read a cache
    return env


def _spawn(workload, seed, seconds, trace, deadline, setup_only=False):
    """Start a worker; return (seconds from start to "ready", final JSON or
    None).  Raises BenchError when the worker fails or runs out of time."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        argv.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, env=_child_env())
    try:
        line = _read_line(proc.stdout.fileno(), deadline)
        setup = time.perf_counter() - start
        if line != b"ready\n":
            raise BenchError("%s worker did not get ready" % workload)
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("%s worker ran out of time" % workload) from None
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise BenchError("%s worker exited with %d" % (workload, proc.returncode))
    if setup_only:
        return setup, None
    return setup, json.loads(out.decode().strip().splitlines()[-1])


def _read_line(fd, deadline):
    """One line from a pipe, read unbuffered so that communicate() later sees
    the rest; b"" when the writer closes it first or the deadline passes."""
    line = b""
    while not line.endswith(b"\n"):
        ready, _, _ = select.select([fd], [], [], max(0.0, deadline - time.monotonic()))
        chunk = os.read(fd, 1) if ready else b""
        if not chunk:
            return b""
        line += chunk
    return line


def run_workload(workload, seed, seconds, trace, deadline):
    """One run: the measuring process and, untraced, the set-up probes."""
    setups = [_spawn(workload, seed, seconds, trace, deadline, setup_only=True)[0]
              for _ in range(0 if trace else SETUP_PROBES)]
    setup, result = _spawn(workload, seed, seconds, trace, deadline)
    setups.append(setup)
    result["setup_s"] = statistics.median(setups)
    # the named fault is the only failure that leaves the run correct
    result["correct"] = result["failed"] == result["known_faults"]
    return result


def end_to_end(result):
    return {"wall_s": statistics.median(result["pass_wall_s"]),
            "cpu_s": statistics.median(result["pass_cpu_s"]),
            "setup_s": result["setup_s"],
            "peak_rss_mb": result["peak_rss_mb"]}


def report(result, trace):
    """Print a run's figures with their units; return its result document."""
    units = metrics.PER_LAYER if trace else metrics.END_TO_END
    values = result["per_layer"] if trace else end_to_end(result)
    print("%s seed %d%s: %d pass(es), %d attempted, %d failed, %d skipped%s"
          % (result["workload"], result["seed"], " traced" if trace else "",
             result["passes"], result["attempted"], result["failed"], result["skipped"],
             "" if result["correct"] else "  OUTPUT CHECKS FAILED"))
    for problem in result["problems"]:
        print("  failed: %s" % problem)
    for name, value in values.items():
        print("  %-40s %14.6g %s" % (name, value, units[name]))
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: {"value": value, "unit": units[name]}
                        for name, value in values.items()}}


def _write(name, doc):
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, name)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
    return path


def main(argv=None):
    parser = argparse.ArgumentParser(description="omod benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds is None:
        with open(SPEC) as fh:
            args.seconds = json.load(fh)["run_seconds"]
    names = [args.workload] if args.workload else WORKLOADS
    # one workload runs in the mode asked for; all of them run untraced and,
    # with --trace 1, traced as well, for the tracing overhead
    modes = [args.trace] if args.workload else range(args.trace + 1)
    label = "%s-seed%d" % (args.workload or "all", args.seed)
    docs, traces = {}, {}
    try:
        for name in names:
            runs = {}
            for trace in modes:
                runs[trace] = run_workload(name, args.seed, args.seconds, trace,
                                           time.monotonic() + RUN_DEADLINE_S)
                doc = report(runs[trace], trace)
                docs.setdefault(name, {})["traced" if trace else "untraced"] = doc
            if 1 in runs:
                traces[name] = runs[1]["trace"]
            if len(runs) == 2:   # both start cold: compare first passes
                print("  %-40s %14.1f %%" % (
                    "tracing overhead (traced / untraced)",
                    100 * (runs[1]["pass_wall_s"][0] / runs[0]["pass_wall_s"][0] - 1)))
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print("results written to %s" % _write("result-%s.json" % label, docs))
    if traces:
        print("trace written to %s" % _write("trace-%s.json" % label,
                                             {"seed": args.seed, "workloads": traces}))
    if args.workload:
        print(json.dumps(doc))
        return 0
    return 0 if all(d["correct"] for run in docs.values() for d in run.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
