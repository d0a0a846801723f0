"""Command-line harness: build torsion towers, run verification suites, and
merge report files.

    omod tower  --q 3 --m 2
    omod verify --q 2 --n 2 --m 1 --which valuations
    omod report run1.json run2.json

Exit codes: 0 on success, 1 when verify/report has a failed check (the
report counts them) or tower cannot build the requested tower, 2 for
configuration errors reported before any computation (among them a --prec at
or below a ramification index of a tower the run builds).
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from fractions import Fraction

from .errors import (CapExceeded, ExtensionRequired, IndexOutOfRange, OmodError,
                     PrecisionExhausted, SchemaMismatch)
from .finitefield import GF, field_with_order
from .formalmod import (DEGREE_CAP, bijective_level_structure, connected_height,
                        count_level_structures, kernel_rank, module_from_unit_coefficients,
                        torsion_points)
# build_tower stays importable from here: perfbench's tracer test reads cli.build_tower
from .lubintate import (_built_once, build_tower, character_restriction_consistent,  # noqa: F401
                        cm_tower, expected_primitive_valuation, verify_character,
                        verify_determinant_character, verify_product_formula,
                        verify_torsion_valuations)
from .pi0 import expected_invariant_factors, h0_decomposition, pi0_action_table, unit_group
from .report import (CheckResult, coverage_matrix, dumps_canonical, merge_documents,
                     render_text, report_document, to_csv)
from .series import base_field
from .tower import FieldTower

WHICH_CHOICES = ("character", "valuations", "product", "determinant",
                 "level-count", "kernel-height", "pi0", "h0")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="omod",
        description="Exact verification harness for formal o-module torsion towers.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--q", type=int, required=True, help="residue cardinality")
        p.add_argument("--n", type=int, default=1, help="height")
        p.add_argument("--m", type=int, default=1, help="torsion level")
        p.add_argument("--prec", type=int, default=64, help="working precision")

    # no prefix matching: a stray --p would otherwise be read as --prec
    t = sub.add_parser("tower", help="build a torsion tower and print its data",
                       allow_abbrev=False)
    common(t)
    t.add_argument("--cm", action="store_true",
                   help="work over the degree-n unramified enlargement")
    t.add_argument("--output", choices=("text", "json"), default="text")
    v = sub.add_parser("verify", help="run verification suites", allow_abbrev=False)
    common(v)
    v.add_argument("--seed", type=int, default=0, help="seed for pi0's sampled checks")
    v.add_argument("--output", choices=("text", "json", "csv"), default="text")
    v.add_argument("--which", action="append", default=None,
                   help="comma-separated subset of: %s" % ", ".join(WHICH_CHOICES))
    r = sub.add_parser("report", help="merge report files into a coverage matrix")
    r.add_argument("files", nargs="+")
    r.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def min_precision(q, height, level):
    """Smallest working precision for the height-`height` cm tower to
    `level` (0 when nothing is built): the precision must exceed every
    relative ramification index, q^height - 1 at level 1 and q^height above,
    or the base uniformizer's image vanishes modulo u^precision."""
    if level < 1:
        return 0
    return q ** height + (1 if level >= 2 else 0)


def _has_residue_field(p, f):
    """Whether F_{p^f} can be built (GF raises CapExceeded when it has no
    published modulus)."""
    try:
        GF(p, f)
    except CapExceeded:
        return False
    return True


class RunConfig:
    def __init__(self, args):
        if args.n < 1:
            raise ValueError("n must be >= 1")
        try:     # a non-prime-power q raises ValueError, an unsupported field CapExceeded
            spec = field_with_order(args.q)
        except CapExceeded as exc:
            raise ValueError(str(exc)) from None
        self.p, self.f = spec.p, spec.f
        self.q = spec.q
        self.n = args.n
        self.m = args.m
        self.precision = args.prec
        self.output = args.output
        # --seed is verify's flag and --cm tower's; the report config echoes both
        self.seed = args.seed if args.command == "verify" else 0
        self.cm = args.command == "tower" and args.cm
        if self.m < 0:
            raise ValueError("m must be >= 0")
        if self.m < 1 and args.command == "verify":
            raise ValueError("verify needs m >= 1")
        if self.precision < 16:
            raise ValueError("precision must be >= 16")
        # q >= 2 and 1000 >= DEGREE_CAP.bit_length(), so every exponent past 1000
        # is over the cap: it is named as q^e, not formed (q^e may be too long to print)
        exponent = self.n * max(self.m, 1)
        degree = "%d^%d" % (self.q, exponent) if exponent > 1000 else self.q ** exponent
        if exponent > 1000 or degree > DEGREE_CAP:
            raise ValueError("q^(n*max(m,1)) = %s exceeds the degree cap %d"
                             % (degree, DEGREE_CAP))
        if args.command == "tower":
            towers = [(self.n if self.cm else 1, self.m)]
        else:
            self.which = _parse_which(args.which)
            towers = [(height, level) for suites, height, level in (
                ({"character"}, 1, self.m),
                ({"valuations", "product", "determinant", "level-count"}, self.n, self.m),
                ({"kernel-height"}, self.n, 1)) if suites & set(self.which)]
        # one tower per height, to the deepest level any selected suite reads:
        # sorted by level, a height's deepest pair is the one dict keeps
        self._levels = dict(sorted(towers, key=lambda tower: tower[1]))
        # a height whose residue field F_{q^height} has no published modulus
        # builds nothing at any precision: its rows skip with that reason
        need = max((min_precision(self.q, height, level) for height, level in towers
                    if _has_residue_field(self.p, self.f * height)), default=0)
        if self.precision < need:
            raise ValueError("precision %d does not exceed a ramification index of the"
                             " tower; the smallest working --prec is %d"
                             % (self.precision, need))
        self._towers = {}
        self._unit_group = None

    def as_dict(self):
        return {"p": self.p, "f": self.f, "q": self.q, "n": self.n, "m": self.m,
                "precision": self.precision, "degree_cap": DEGREE_CAP,
                "seed": self.seed, "cm": self.cm}

    def tower(self, n):
        """The tower of height n, built once per run to the deepest level any
        selected suite reads, and shared by every suite; a build that fails
        is not retried, its OmodError is raised again."""
        return _built_once(self._towers, n, lambda: cm_tower(
            self.p, self.f, n, self._levels[n], self.precision))

    def unit_group(self):
        """(o/t^m)^x, built once per run and shared by the pi0 and h0 suites."""
        if self._unit_group is None:
            self._unit_group = unit_group((self.p, self.f), self.m)
        return self._unit_group


def cmd_tower(cfg) -> int:
    height = cfg.n if cfg.cm else 1
    lt = cfg.tower(height)
    degrees = [lt.degree(k) for k in range(1, cfg.m + 1)]
    doc = {
        "command": "tower",
        "config": cfg.as_dict(),
        "from_cache": False,            # no tower is cached; the key keeps the report bytes
        "degrees": degrees,
        "levels": [
            {"level": k,
             "uniformizer": spec.uniformizer,
             "base_uniformizer_series": (spec.embedding.image_of_base_uniformizer.to_json()
                                         if spec in lt.tower.levels else None)}
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


# errors that mark a limit of the implementation, not a counterexample
LIMITS = (IndexOutOfRange, CapExceeded, ExtensionRequired, PrecisionExhausted)


def _check(check, claim, params, source, fallback, compute):
    """One result row for compute() -> (computed, expected), timed.  A limit
    (LIMITS) raised by compute() gives a `skipped` row with its reason, any
    other OmodError a `fail` row; both show `fallback` as the expected value."""
    start = time.time()
    try:
        computed, expected = compute()
    except LIMITS as exc:
        return CheckResult(check, claim, params, "not computed: %s" % exc, fallback,
                           "skipped", source, None, time.time() - start)
    except OmodError as exc:
        return CheckResult(check, claim, params, "error", fallback, "fail", source,
                           str(exc), time.time() - start)
    status = "pass" if computed == expected else "fail"
    return CheckResult(check, claim, params, computed, expected, status, source, None,
                       time.time() - start)


def run_character(cfg):
    order = (cfg.q - 1) * cfg.q ** (cfg.m - 1)

    def compute():
        lt = cfg.tower(1)
        table = verify_character(lt)
        return ({"group_order": len(table.table), "tower_degree": lt.degree(),
                 "restriction_compatible": character_restriction_consistent(lt)},
                {"group_order": order, "tower_degree": order, "restriction_compatible": True})

    return [_check("character", "torsion substitutions realize the unit group (o/t^m)^x",
                   {"q": cfg.q, "m": cfg.m}, "enumeration", "group isomorphism", compute)]


def run_valuations(cfg):
    expected = str(expected_primitive_valuation(cfg.q, cfg.n, cfg.m))

    def compute():
        report = verify_torsion_valuations(cfg.tower(cfg.n).torsion(cfg.m))
        return str(report["primitive_valuation"]), expected

    return [_check("valuations", "primitive level-m torsion valuation = 1/((q^n-1) q^(n(m-1)))",
                   {"q": cfg.q, "n": cfg.n, "m": cfg.m}, "construction", expected, compute)]


def run_product(cfg):
    q, n, m = cfg.q, cfg.n, cfg.m

    def compute():
        report = verify_product_formula(cfg.tower(n))
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
        witness = verify_determinant_character(cfg.tower(cfg.n))
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
                   lambda: (count_level_structures(cfg.tower(n).torsion(m)), expected))]


def run_kernel_height(cfg):
    claim = "kernel rank of the level structure equals the connected height"
    params = {"q": cfg.q, "n": cfg.n, "m": 1}

    def etale_and_closed():
        lt = cfg.tower(cfg.n)
        X = lt.module
        phi = bijective_level_structure(lt.torsion(1))
        return ({"etale": [kernel_rank(phi, "generic"), connected_height(X, "generic")],
                 "closed_fibre": [kernel_rank(phi, "closed"), connected_height(X, "closed")]},
                {"etale": [0, 0], "closed_fibre": [cfg.n, cfg.n]})

    def unit_coefficient():
        F = base_field(cfg.p, cfg.f, precision=cfg.precision)
        X = module_from_unit_coefficients(F, [1], cfg.n)
        phi = bijective_level_structure(torsion_points(X, 1, FieldTower(F)))
        return [kernel_rank(phi, "closed"), connected_height(X, "closed")], [1, 1]

    # the mixed splitting is implemented for the residue-rooted wild quadratic
    # pattern; elsewhere the row mostly stops at a limit and is skipped
    return [_check("kernel-height", claim, dict(params, specialization="etale+closed"),
                   "construction", "rank = height", etale_and_closed),
            _check("kernel-height", claim, dict(params, specialization="unit-coefficient"),
                   "construction", "rank = height", unit_coefficient)]


def run_pi0(cfg):
    def compute():
        action = pi0_action_table(cfg.p, cfg.f, cfg.n, cfg.m, rng=random.Random(cfg.seed),
                                  group=cfg.unit_group())
        return ({"group_order": action.group.order,
                 "nrd_surjective": action.report["nrd_surjective"],
                 "invariant_factors": action.group.invariant_factors},
                {"group_order": (cfg.q - 1) * cfg.q ** (cfg.m - 1),
                 "nrd_surjective": True,
                 "invariant_factors": expected_invariant_factors(cfg.p, cfg.f, cfg.m)})

    return [_check("pi0", "component maps det, inverse reduced norm, inverse character are"
                   " homomorphisms with the stated trivial kernels",
                   {"q": cfg.q, "n": cfg.n, "m": cfg.m}, "enumeration", "verified action",
                   compute)]


def run_h0(cfg):
    order = (cfg.q - 1) * cfg.q ** (cfg.m - 1)

    def compute():
        _group, _chars, rows = h0_decomposition(cfg.p, cfg.f, cfg.m, group=cfg.unit_group())
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


def _parse_which(raw):
    which = []
    for chunk in raw or [",".join(WHICH_CHOICES)]:
        which.extend(w.strip() for w in chunk.split(",") if w.strip())
    bad = [w for w in which if w not in WHICH_CHOICES]
    if bad:
        raise ValueError("unknown suites %s" % bad)
    if not which:
        raise ValueError("--which selects no suite")
    return which


def cmd_verify(cfg) -> int:
    results = []
    for name in cfg.which:
        results.extend(RUNNERS[name](cfg))
    doc = report_document(results, dict(cfg.as_dict(), which=list(cfg.which)))
    if cfg.output == "json":
        sys.stdout.write(dumps_canonical(doc))
    elif cfg.output == "csv":
        sys.stdout.write(to_csv(results))
    else:
        sys.stdout.write(render_text(results, cfg.as_dict()))
    return 1 if doc["failures"] else 0


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
    return 1 if merged["failures"] else 0


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
        try:
            return cmd_tower(cfg)
        except OmodError as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
    return cmd_verify(cfg)


if __name__ == "__main__":
    sys.exit(main())
