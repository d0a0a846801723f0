"""The four benchmark workloads: inputs, one pass of omod calls, and checks.

A pass makes the same omod calls every time.  Only those calls are timed
(and traced); the checks that follow each call are the benchmark's own work
and stay outside the timed section.  Each call whose output is checked is one
operation; a pass records exactly the same operations whatever the seed.

The seed fixes the order of the cases within a pass and the random streams
of omod's sampled checks (`pi0_action_table`'s rng, `omod verify --seed`).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
from dataclasses import dataclass, field

from omod import cache, cli, lubintate, pi0, series
from omod.errors import OmodError
from omod.finitefield import GF, field_with_order

import checks

PRECISION = 64          # the CLI's default working precision
PAIR_SAMPLES = 200      # pi0_action_table's default sample size
TAMPER_Q = 3            # the tampered cache copy: q = 3, m = 3 ...
TAMPER_EXPONENT = 48    # ... top-level coefficient of u^48, upper half of [0, 64)


@dataclass
class Op:
    """One checked omod call."""

    label: str
    problems: list = field(default_factory=list)
    skipped: bool = False
    known_fault: bool = False   # fails today because of a named omod fault


def _field(q):
    spec = field_with_order(q)
    return spec.p, spec.f


class Workload:
    """Cases run in a seed-fixed order; subclasses define `cases` (tuples of
    parameters), `ops_per_case` and `run_case`."""

    cases = ()
    ops_per_case = 1

    def __init__(self, seed, work_dir):
        self.seed = seed
        self.order = random.Random(seed).sample(list(self.cases), len(self.cases))
        for case in self.cases:          # GF modulus checks belong to set-up
            p, f = _field(case[0])
            if len(case) == 3:           # (q, n, m): the degree-n enlargement too
                GF(p, f * case[1])

    def run_pass(self, timed):
        ops = []
        for case in self.order:
            start = len(ops)
            try:
                self.run_case(case, timed, ops)
            except Exception as exc:  # a crash fails the case's remaining ops
                done = len(ops) - start
                msg = "%s raised %s: %s" % (case, type(exc).__name__, exc)
                ops.extend(Op(str(case), [msg]) for _ in range(self.ops_per_case - done))
        return ops

    def run_case(self, case, timed, ops):
        raise NotImplementedError


class Character(Workload):
    """build_tower, verify_character, character_restriction_consistent."""

    cases = ((3, 2), (4, 2))           # (q, m): residue degree f = 1 and f = 2
    ops_per_case = 3

    def run_case(self, case, timed, ops):
        q, m = case
        p, f = _field(q)
        label = "q=%d m=%d" % (q, m)
        with timed():
            lt = lubintate.build_tower(series.base_field(p, f, precision=PRECISION),
                                       m, PRECISION)
        ops.append(Op("build_tower " + label, check_built(q, m, lt)))
        with timed():
            table = lubintate.verify_character(lt)
        ops.append(Op("verify_character " + label,
                      checks.check_character_table(q, m, table.table.keys(), lt.degree())))
        with timed():
            consistent = lubintate.character_restriction_consistent(lt)
        ops.append(Op("character_restriction_consistent " + label,
                      checks.check_restriction(consistent)))


class VerifyCli(Workload):
    """`omod verify --output json`, all suites, run in-process."""

    cases = ((2, 2, 2), (2, 2, 1), (3, 2, 1), (2, 3, 1))   # (q, n, m)
    ops_per_case = 1 + len(checks.expected_rows(2, 2, 1))

    def run_case(self, case, timed, ops):
        q, n, m = case
        argv = ["verify", "--q", str(q), "--n", str(n), "--m", str(m),
                "--output", "json", "--seed", str(self.seed)]
        out = io.StringIO()
        with timed(), contextlib.redirect_stdout(out):
            code = cli.main(argv)
        label = "omod " + " ".join(argv)
        problems, rows = checks.check_verify_report(q, n, m, code, json.loads(out.getvalue()))
        ops.append(Op(label, problems))
        for (check, spec), (status, row_problems) in rows.items():
            ops.append(Op("%s %s%s" % (label, check, " " + spec if spec else ""),
                          row_problems, skipped=status == "skipped"))


class TowerCache(Workload):
    """build_tower, save_tower, load_tower at m = 3, plus one load of a
    tampered q = 3 copy."""

    cases = ((2, 3), (3, 3), (4, 3))   # (q, m)
    ops_per_case = 3

    def __init__(self, seed, work_dir):
        super().__init__(seed, work_dir)
        self.cache_dir = os.path.join(work_dir, "cache")
        self.tamper_dir = os.path.join(work_dir, "tampered")
        os.makedirs(self.tamper_dir, exist_ok=True)
        self.fresh = {}

    def run_pass(self, timed):
        ops = super().run_pass(timed)
        try:
            ops.append(self.tampered_load(timed))
        except Exception as exc:  # counted like any other failed operation
            ops.append(Op("tampered load", ["raised %s: %s" % (type(exc).__name__, exc)]))
        return ops

    def run_case(self, case, timed, ops):
        q, m = case
        p, f = _field(q)
        label = "q=%d m=%d" % (q, m)
        with timed():
            lt = lubintate.build_tower(series.base_field(p, f, precision=PRECISION),
                                       m, PRECISION)
        ops.append(Op("build_tower " + label, check_built(q, m, lt)))
        self.fresh[q] = level_series(lt)
        with timed():
            path = cache.save_tower(self.cache_dir, lt, p, f, 1)
        with open(path) as fh:
            ops.append(Op("save_tower " + label,
                          checks.check_cache_key(json.load(fh), p, f, 1, m, PRECISION)))
        with timed():
            loaded = cache.load_tower(self.cache_dir, p, f, 1, m, PRECISION)
        if loaded is None:
            ops.append(Op("load_tower " + label, ["saved tower was not found"]))
            return
        ops.append(Op("load_tower " + label,
                      checks.check_loaded_series(self.fresh[q], level_series(loaded))
                      + checks.check_recursion(residual_orders(loaded), PRECISION)))

    def tampered_load(self, timed):
        """Load a copy of the q = 3 cache file with one coefficient changed.
        The right outcome is a rejection (an OmodError or a miss)."""
        p, f = _field(TAMPER_Q)
        m = dict(self.cases)[TAMPER_Q]
        name = cache.tower_cache_name(p, f, 1, m, PRECISION)
        with open(os.path.join(self.cache_dir, name)) as fh:
            doc = json.load(fh)
        top = doc["levels"][-1]["base_uniformizer_series"]
        coeff = top["coeffs"][TAMPER_EXPONENT - top["leading_exponent"]]
        coeff[0] = (coeff[0] + 1) % p
        with open(os.path.join(self.tamper_dir, name), "w") as fh:
            json.dump(doc, fh)
        label = "load_tower tampered q=%d m=%d u^%d" % (TAMPER_Q, m, TAMPER_EXPONENT)
        try:
            with timed():
                loaded = cache.load_tower(self.tamper_dir, p, f, 1, m, PRECISION)
        except OmodError:
            return Op(label)
        if loaded is None:
            return Op(label)
        served = checks.check_loaded_series(self.fresh[TAMPER_Q], level_series(loaded))
        return Op(label, ["tampered cache file served as valid"] + served[:1],
                  known_fault=True)


class Components(Workload):
    """pi0_action_table with a seeded rng, then h0_decomposition."""

    cases = ((2, 2, 2), (2, 2, 3), (3, 2, 1), (3, 2, 2), (4, 2, 2))   # (q, n, m)
    ops_per_case = 2

    def run_case(self, case, timed, ops):
        q, n, m = case
        p, f = _field(q)
        label = "q=%d n=%d m=%d" % case
        rng = random.Random(self.seed * 1000 + self.cases.index(case))
        with timed():
            action = pi0.pi0_action_table(p, f, n, m, rng=rng, pair_samples=PAIR_SAMPLES)
        report = action.report
        ops.append(Op("pi0_action_table " + label, checks.check_pi0_action(
            q, m, action.group.order, action.group.invariant_factors,
            report.get("nrd_surjective"), report.get("det_pairs", 0),
            report.get("nrd_pairs", 0), PAIR_SAMPLES)))
        with timed():
            _group, _chars, rows = pi0.h0_decomposition(p, f, m)
        ops.append(Op("h0_decomposition " + label,
                      checks.check_h0(q, m, [r["omega_on_generators"] for r in rows])))


WORKLOADS = {"character": Character, "verify-cli": VerifyCli,
             "tower-cache": TowerCache, "components": Components}


def check_built(q, m, lt):
    """Degrees and v(lam_k) of a fresh tower; each lam_k is valued in its own
    level field (valuations are normalized so that v(t) = 1)."""
    return checks.check_tower_levels(q, m, [lt.degree(k) for k in range(1, m + 1)],
                                     [lam.valuation() for _spec, lam in lt.levels])


def level_series(lt):
    """to_json() of each level's base-uniformizer series, None for a
    degree-one level (the same levels the cache stores)."""
    out = []
    for spec, _lam in lt.levels:
        if spec.base is None or spec not in lt.tower.levels:
            out.append(None)
        else:
            out.append(spec.embedding.image_of_base_uniformizer.to_json())
    return out


def residual_orders(lt):
    """Order lower bound of [t](lam_k) - lam_(k-1) for k = 1..m, in the top
    field of the tower."""
    P = lt.module.embedded_t_action(lt.top)
    out = []
    prev = lt.top.zero()
    for k in range(1, lt.m_max + 1):
        lam = lt.lam(k)
        out.append((P(lam) - prev).order_lower_bound())
        prev = lam
    return out
