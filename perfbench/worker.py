"""Run one workload in this (fresh, single-threaded) process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
                                [--setup-only]

Prints "ready" once set-up is done, then repeats whole passes until S seconds
have gone by (at least one pass), and prints one JSON line with the per-pass
wall and CPU times of the timed omod calls, the operation counts and the peak
resident memory.  With --trace 1 it makes exactly one traced pass and adds
the per-layer metrics of that pass.  omod is imported
from the `src` directory next to this benchmark and nowhere else.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")


def import_omod():
    sys.path.insert(0, SRC)
    import omod

    if not os.path.abspath(omod.__file__).startswith(SRC + os.sep):
        raise ImportError("omod was imported from %s, not from %s" % (omod.__file__, SRC))
    return omod


class Timer:
    """Accumulates wall and CPU time of the timed sections of one pass, and
    turns tracing on inside them."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.wall = self.cpu = 0.0

    @contextlib.contextmanager
    def timed(self):
        record = self.tracer.recording() if self.tracer else contextlib.nullcontext()
        with record:
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                yield
            finally:
                self.cpu += time.process_time() - cpu
                self.wall += time.perf_counter() - wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    omod = import_omod()
    import metrics
    import workloads

    work_dir = os.path.join(OUT, "work-%d" % os.getpid())
    os.makedirs(work_dir)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, work_dir)
        print("ready", flush=True)
        if args.setup_only:
            return 0
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(omod)
        ops, walls, cpus = [], [], []
        begin = time.perf_counter()
        while True:
            timer = Timer(tracer)
            ops.extend(workload.run_pass(timer.timed))
            walls.append(timer.wall)
            cpus.append(timer.cpu)
            if tracer is not None or time.perf_counter() - begin >= args.seconds:
                break
        result = {
            "workload": args.workload,
            "seed": args.seed,
            "passes": len(walls),
            "pass_wall_s": walls,
            "pass_cpu_s": cpus,
            "attempted": len(ops),
            "failed": sum(1 for op in ops if op.problems),
            "known_faults": sum(1 for op in ops if op.problems and op.known_fault),
            "skipped": sum(1 for op in ops if op.skipped),
            "problems": sorted({"%s: %s" % (op.label, "; ".join(op.problems))
                                for op in ops if op.problems}),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            result["trace"] = tracer.summary()
            result["per_layer"] = metrics.per_layer_values(result["trace"], walls[0])
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
