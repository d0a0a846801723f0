"""Command-line harness: build torsion towers, run verification suites, and
merge report files.

    omod tower  --q 3 --m 2
    omod verify --q 2 --n 2 --m 1 --which valuations
    omod report run1.json run2.json

Exit codes: 0 on success, the number of failed checks (capped at 125) for
verify/report, 2 for configuration errors reported before any computation.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from fractions import Fraction

from .cache import CACHE_ENV_VAR, load_tower, save_tower, tower_cache_name
from .errors import OmodError, SchemaMismatch
from .finitefield import field_with_order
from .formalmod import (DEGREE_CAP, bijective_level_structure, connected_height,
                        count_level_structures, kernel_rank, lubin_tate_module,
                        module_from_unit_coefficients, torsion_points)
# build_tower stays importable from here: perfbench's tracer test reads cli.build_tower
from .lubintate import (build_tower, character_restriction_consistent, cm_tower,  # noqa: F401
                        expected_primitive_valuation, verify_character,
                        verify_determinant_character, verify_product_formula,
                        verify_torsion_valuations)
from .pi0 import h0_decomposition, pi0_action_table
from .report import (CheckResult, coverage_matrix, dumps_canonical, merge_documents,
                     render_text, report_document, to_csv)
from .series import base_field
from .tower import FieldTower, unramified_extension

WHICH_CHOICES = ("character", "valuations", "product", "determinant",
                 "level-count", "kernel-height", "pi0", "h0")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="omod",
        description="Exact verification harness for formal o-module torsion towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--p", type=int, default=None, help="residue characteristic")
        p.add_argument("--f", type=int, default=1,
                       help="residue degree over the prime field")
        p.add_argument("--q", type=int, default=None,
                       help="residue cardinality (alternative to --p/--f)")
        p.add_argument("--n", type=int, default=1, help="height")
        p.add_argument("--m", type=int, default=1, help="torsion level")
        p.add_argument("--prec", type=int, default=64, help="working precision")
        p.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV_VAR))
        p.add_argument("--output", choices=("text", "json", "csv"), default="text")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for sampled property checks")
        p.add_argument("--cm", action="store_true",
                       help="work over the degree-n unramified enlargement")

    t = sub.add_parser("tower", help="build a torsion tower and print its data")
    common(t)
    v = sub.add_parser("verify", help="run verification suites")
    common(v)
    v.add_argument("--which", action="append", default=None,
                   help="comma-separated subset of: %s" % ", ".join(WHICH_CHOICES))
    r = sub.add_parser("report", help="merge report files into a coverage matrix")
    r.add_argument("files", nargs="+")
    r.add_argument("--output", choices=("text", "json"), default="text")
    return parser


class RunConfig:
    def __init__(self, args):
        if args.q is not None:
            spec = field_with_order(args.q)
            self.p, self.f = spec.p, spec.f
            if args.p is not None and args.p != spec.p:
                raise ValueError("--q and --p disagree")
        elif args.p is not None:
            self.p, self.f = args.p, args.f
        else:
            raise ValueError("one of --q or --p is required")
        self.q = self.p ** self.f
        self.n = args.n
        self.m = args.m
        self.precision = args.prec
        self.cache_dir = args.cache_dir
        self.output = args.output
        self.seed = args.seed
        self.cm = args.cm
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.m < 1 and args.command == "verify":
            raise ValueError("verify needs m >= 1")
        if self.precision < 16:
            raise ValueError("precision must be >= 16")
        if self.q ** (self.n * max(self.m, 1)) > DEGREE_CAP:
            raise ValueError("q^(nm) = %d exceeds the degree cap %d"
                             % (self.q ** (self.n * self.m), DEGREE_CAP))
        self._towers = {}

    def as_dict(self):
        return {"p": self.p, "f": self.f, "q": self.q, "n": self.n, "m": self.m,
                "precision": self.precision, "degree_cap": DEGREE_CAP,
                "seed": self.seed, "cm": self.cm}

    def tower(self, n):
        """(tower, from_cache) of height n to level m, built once per run and
        shared by every suite; read from and written to the cache directory,
        where a file that fails to load is reported on stderr and rebuilt."""
        if n not in self._towers:
            key = (self.p, self.f, n, self.m, self.precision)
            lt = None
            if self.cache_dir:
                try:
                    lt = load_tower(self.cache_dir, *key)
                except OmodError as exc:
                    print("warning: rebuilding cached tower %s: %s"
                          % (tower_cache_name(*key), exc), file=sys.stderr)
            from_cache = lt is not None
            if not from_cache:
                lt = cm_tower(*key)
                if self.cache_dir:
                    save_tower(self.cache_dir, lt, self.p, self.f, n)
            self._towers[n] = (lt, from_cache)
        return self._towers[n]


def cmd_tower(cfg) -> int:
    lt, from_cache = cfg.tower(cfg.n if cfg.cm else 1)
    degrees = [lt.degree(k) for k in range(1, cfg.m + 1)]
    doc = {
        "command": "tower",
        "config": cfg.as_dict(),
        "from_cache": from_cache,
        "degrees": degrees,
        "levels": [
            {"level": k,
             "uniformizer": spec.uniformizer,
             "base_uniformizer_series": (spec.embedding.image_of_base_uniformizer.to_json()
                                         if spec.embedding is not None and spec.base is not None
                                         and spec in lt.tower.levels else None)}
            for k, (spec, _lam) in enumerate(lt.levels, start=1)
        ],
    }
    if cfg.m >= 1 and cfg.q ** (cfg.n * cfg.m if cfg.cm else cfg.m) <= 256:
        doc["torsion"] = lt.torsion(cfg.m).to_json()
    if cfg.output == "json":
        sys.stdout.write(dumps_canonical(doc))
    else:
        print("tower over F_%d((t))%s, level %d" % (
            cfg.q, " enlarged to F_%d" % (cfg.q ** cfg.n) if cfg.cm else "", cfg.m))
        print("degrees over the base: %s" % (degrees,))
        for lvl in doc["levels"]:
            series = lvl["base_uniformizer_series"]
            if series is None:
                print("  level %d: degree-one step" % lvl["level"])
            else:
                print("  level %d: uniformizer %s, base uniformizer = series with"
                      " leading exponent %s" % (lvl["level"], lvl["uniformizer"],
                                                series["leading_exponent"]))
        if "torsion" in doc:
            print("torsion points: %d (rank %d)" % (doc["torsion"]["cardinality"],
                                                    doc["torsion"]["rank"]))
    return 0


# --- verify runners -----------------------------------------------------------------


def _check(check, claim, params, source, fallback, compute, on_error="fail"):
    """One result row for compute() -> (computed, expected), timed.  An
    OmodError from compute() gives a `fail` row (or, with on_error="skipped",
    a `skipped` one) that shows `fallback` as the expected value."""
    start = time.time()
    try:
        computed, expected = compute()
    except OmodError as exc:
        if on_error == "skipped":
            return CheckResult(check, claim, params, "not computed: %s" % exc, fallback,
                               "skipped", source, None, time.time() - start)
        return CheckResult(check, claim, params, "error", fallback, "fail", source,
                           str(exc), time.time() - start)
    status = "pass" if computed == expected else "fail"
    return CheckResult(check, claim, params, computed, expected, status, source, None,
                       time.time() - start)


def run_character(cfg):
    order = (cfg.q - 1) * cfg.q ** (cfg.m - 1)

    def compute():
        lt, _ = cfg.tower(1)
        table = verify_character(lt)
        return ({"group_order": len(table.table), "tower_degree": lt.degree(),
                 "restriction_compatible": character_restriction_consistent(lt)},
                {"group_order": order, "tower_degree": order, "restriction_compatible": True})

    return [_check("character", "torsion substitutions realize the unit group (o/t^m)^x",
                   {"q": cfg.q, "m": cfg.m}, "enumeration", "group isomorphism", compute)]


def run_valuations(cfg):
    expected = str(expected_primitive_valuation(cfg.q, cfg.n, cfg.m))

    def compute():
        lt, _ = cfg.tower(cfg.n)
        report = verify_torsion_valuations(lt.module, cfg.m, torsion=lt.torsion(cfg.m))
        return str(report["primitive_valuation"]), expected

    return [_check("valuations", "primitive level-m torsion valuation = 1/((q^n-1) q^(n(m-1)))",
                   {"q": cfg.q, "n": cfg.n, "m": cfg.m}, "construction", expected, compute)]


def run_product(cfg):
    q, n, m = cfg.q, cfg.n, cfg.m

    def compute():
        lt, _ = cfg.tower(n)
        report = verify_product_formula(lt.module, m, torsion=lt.torsion(m))
        return ({"rep_count": report["rep_count"],
                 "valuation_sum": str(report["valuation_sum"]),
                 "ratio_valuation": str(report["ratio_valuation"])},
                {"rep_count": (q ** n - 1) * q ** (n * (m - 1)) // ((q - 1) * q ** (m - 1)),
                 "valuation_sum": str(Fraction(1, (q - 1) * q ** (m - 1))),
                 "ratio_valuation": "0"})

    return [_check("product", "level-m uniformizer = unit x product of level structure values"
                   " over orbit reps", {"q": q, "n": n, "m": m}, "construction",
                   "exact identity", compute)]


def run_determinant(cfg):
    def compute():
        witness = verify_determinant_character(cfg.tower(cfg.n)[0])
        total = (cfg.q ** cfg.n - 1) * (cfg.q ** cfg.n) ** (cfg.m - 1)
        return {"cases_verified": len(witness.rows)}, {"cases_verified": total}

    return [_check("determinant", "torsion substitutions move the height-one generator by the"
                   " coefficient norm", {"q": cfg.q, "n": cfg.n, "m": cfg.m}, "construction",
                   "norm compatibility for all units", compute)]


def run_level_count(cfg):
    q, n, m = cfg.q, cfg.n, cfg.m
    expected = q ** ((m - 1) * n * n)     # |GL_n(o/t^m)|
    for i in range(n):
        expected *= q ** n - q ** i
    return [_check("level-count", "level structures on the etale fibre number |GL_n(o/t^m)|",
                   {"q": q, "n": n, "m": m}, "enumeration", expected,
                   lambda: (count_level_structures(cfg.tower(n)[0].torsion(m)), expected))]


def run_kernel_height(cfg):
    claim = "kernel rank of the level structure equals the connected height"
    params = {"q": cfg.q, "n": cfg.n, "m": 1}

    def etale_and_closed():
        F = base_field(cfg.p, cfg.f, precision=cfg.precision)
        X = lubin_tate_module(unramified_extension(F, cfg.n), cfg.n)
        phi = bijective_level_structure(torsion_points(X, 1))
        return ({"etale": [kernel_rank(phi, "generic"), connected_height(X, "generic")],
                 "closed_fibre": [kernel_rank(phi, "closed"), connected_height(X, "closed")]},
                {"etale": [0, 0], "closed_fibre": [cfg.n, cfg.n]})

    def unit_coefficient():
        F = base_field(cfg.p, cfg.f, precision=cfg.precision)
        X = module_from_unit_coefficients(F, [1], cfg.n)
        phi = bijective_level_structure(torsion_points(X, 1, FieldTower(F)))
        return [kernel_rank(phi, "closed"), connected_height(X, "closed")], [1, 1]

    # the mixed splitting is implemented for the residue-rooted wild quadratic
    # pattern; other parameters report honestly as skipped
    return [_check("kernel-height", claim, dict(params, specialization="etale+closed"),
                   "construction", "rank = height", etale_and_closed),
            _check("kernel-height", claim, dict(params, specialization="unit-coefficient"),
                   "construction", "rank = height", unit_coefficient, on_error="skipped")]


def run_pi0(cfg):
    def compute():
        action = pi0_action_table(cfg.p, cfg.f, cfg.n, cfg.m, rng=random.Random(cfg.seed))
        return ({"group_order": action.group.order,
                 "nrd_surjective": action.report["nrd_surjective"],
                 "invariant_factors": action.group.invariant_factors},
                {"group_order": (cfg.q - 1) * cfg.q ** (cfg.m - 1),
                 "nrd_surjective": True,
                 "invariant_factors": action.group.invariant_factors})

    return [_check("pi0", "component maps det, inverse reduced norm, inverse character are"
                   " homomorphisms with the stated trivial kernels",
                   {"q": cfg.q, "n": cfg.n, "m": cfg.m}, "enumeration", "verified action",
                   compute)]


def run_h0(cfg):
    order = (cfg.q - 1) * cfg.q ** (cfg.m - 1)

    def compute():
        _group, _chars, rows = h0_decomposition(cfg.p, cfg.f, cfg.m)
        distinct = len({tuple(r["omega_on_generators"]) for r in rows})
        return ({"characters": len(rows), "distinct_on_generators": distinct},
                {"characters": order, "distinct_on_generators": order})

    return [_check("h0", "degree-zero invariants decompose into (q-1)q^(m-1) distinct characters",
                   {"q": cfg.q, "m": cfg.m}, "enumeration", "full character list", compute)]


RUNNERS = {
    "character": run_character,
    "valuations": run_valuations,
    "product": run_product,
    "determinant": run_determinant,
    "level-count": run_level_count,
    "kernel-height": run_kernel_height,
    "pi0": run_pi0,
    "h0": run_h0,
}


def cmd_verify(cfg, which) -> int:
    results = []
    for name in which:
        results.extend(RUNNERS[name](cfg))
    doc = report_document(results, dict(cfg.as_dict(), which=list(which)))
    if cfg.output == "json":
        sys.stdout.write(dumps_canonical(doc))
    elif cfg.output == "csv":
        sys.stdout.write(to_csv(results))
    else:
        sys.stdout.write(render_text(results, cfg.as_dict()))
    return min(doc["failures"], 125)


def cmd_report(files, output) -> int:
    docs = []
    for path in files:
        with open(path) as fh:
            docs.append(json.load(fh))
    merged = merge_documents(docs)
    if output == "json":
        sys.stdout.write(dumps_canonical(merged))
    else:
        sys.stdout.write(coverage_matrix(merged))
    return min(merged["failures"], 125)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "report":
            return cmd_report(args.files, args.output)
        cfg = RunConfig(args)
    except (ValueError, SchemaMismatch) as exc:
        print("configuration error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("i/o error: %s" % exc, file=sys.stderr)
        return 2
    if args.command == "tower":
        return cmd_tower(cfg)
    which = []
    raw = args.which or [",".join(WHICH_CHOICES)]
    for chunk in raw:
        which.extend(w.strip() for w in chunk.split(",") if w.strip())
    bad = [w for w in which if w not in WHICH_CHOICES]
    if bad:
        print("configuration error: unknown suites %s" % bad, file=sys.stderr)
        return 2
    return cmd_verify(cfg, which)


if __name__ == "__main__":
    sys.exit(main())
