"""CLI contract: exit codes, determinism, one build per run, report merging."""

import hashlib
import json
import os

import pytest

from omod.cli import WHICH_CHOICES, main
from omod.lubintate import cm_tower
from omod.pi0 import pi0_action_table
from omod.report import SCHEMA, merge_documents
from omod.errors import SchemaMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_cli_or_argparse(capsys, *argv):
    """run_cli, with the code of argparse's SystemExit as the exit code."""
    try:
        return run_cli(capsys, *argv)
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


def no_build(*args, **kwargs):
    raise AssertionError("a tower was built")


def test_tower_q3_m2_degrees(capsys):
    code, out, _ = run_cli(capsys, "tower", "--q", "3", "--m", "2")
    assert code == 0
    assert "[2, 6]" in out


def test_tower_q2_m1_degree_one(capsys):
    code, out, _ = run_cli(capsys, "tower", "--q", "2", "--m", "1")
    assert code == 0
    assert "[1]" in out


def test_tower_cm_q2_n2_m2_degrees(capsys):
    code, out, _ = run_cli(capsys, "tower", "--q", "2", "--n", "2", "--m", "2", "--cm")
    assert code == 0
    assert "[3, 12]" in out


def test_tower_build_error_is_one_stderr_line(capsys, monkeypatch):
    import omod.cli as cli_mod
    from omod.errors import PrecisionExhausted

    def failing_cm_tower(*args):
        raise PrecisionExhausted("image of the base uniformizer is zero modulo u^16")

    monkeypatch.setattr(cli_mod, "cm_tower", failing_cm_tower)
    code, out, err = run_cli(capsys, "tower", "--q", "4", "--n", "2", "--m", "2", "--cm")
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_precision_at_a_ramification_index_exits_2_before_building(capsys, monkeypatch):
    # the height-2 tower over F_4 has relative ramification indices 15 and 16
    import omod.cli as cli_mod

    monkeypatch.setattr(cli_mod, "cm_tower", no_build)
    for argv in (("tower", "--q", "4", "--n", "2", "--m", "2", "--cm", "--prec", "16"),
                 ("verify", "--q", "4", "--n", "2", "--m", "2", "--prec", "16",
                  "--which", "valuations,product")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("configuration error:") and "--prec is 17" in err
    monkeypatch.undo()
    code, out, _ = run_cli(capsys, "verify", "--q", "4", "--n", "2", "--m", "2", "--prec", "17",
                           "--which", "valuations,product", "--output", "json")
    assert code == 0 and json.loads(out)["failures"] == 0


def test_tower_rejects_csv_output(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tower", "--q", "3", "--m", "2", "--output", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_valuations_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "1",
                           "--which", "valuations")
    assert code == 0
    assert "PASS" in out and "1/3" in out


def test_a_failed_torsion_table_is_built_once_per_run(capsys, monkeypatch):
    # valuations, product and level-count share one torsion table; a build
    # that fails is attempted once, and each row fails with its message
    import omod.lubintate as lubintate_mod
    from omod.errors import StructureViolation

    calls = []

    def failing(X, m, tower, lam):
        calls.append(m)
        raise StructureViolation("torsion points are not pairwise distinct: 3 keys for 4 points")

    monkeypatch.setattr(lubintate_mod, "orbit_torsion_from_generator", failing)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "1",
                           "--which", "valuations,product,level-count", "--output", "json")
    rows = json.loads(out)["results"]
    assert code == 1 and calls == [1]
    assert [(r["check"], r["status"], r["witness"]) for r in rows] == [
        (check, "fail", "torsion points are not pairwise distinct: 3 keys for 4 points")
        for check in ("valuations", "product", "level-count")]


def test_verify_exit_code_counts_failures(capsys, monkeypatch, tmp_path):
    # any number of failed checks exits 1, two included (exit 2 is reserved for
    # configuration errors); the count is the report's `failures`
    import omod.cli as cli_mod

    def broken(cfg):
        from omod.report import CheckResult

        return [CheckResult("h0", "claim", {"i": i}, 1, 2, "fail", witness="forced")
                for i in range(2)]

    monkeypatch.setitem(cli_mod.RUNNERS, "h0", broken)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--m", "1",
                           "--which", "h0", "--output", "json")
    assert code == 1 and json.loads(out)["failures"] == 2
    path = tmp_path / "failed.json"
    path.write_text(out)
    code, merged, _ = run_cli(capsys, "report", str(path), "--output", "json")
    assert code == 1 and json.loads(merged)["failures"] == 2


def test_pi0_row_fails_when_the_invariant_factors_are_wrong(capsys, monkeypatch):
    # the expected invariant factors come from the group's structure, not
    # from the enumerated group, so a wrong decomposition fails the row
    import omod.cli as cli_mod

    def wrong_factors(*args, **kwargs):
        action = pi0_action_table(*args, **kwargs)
        action.group.invariant_factors = [action.group.order]
        return action

    monkeypatch.setattr(cli_mod, "pi0_action_table", wrong_factors)
    code, out, _ = run_cli(capsys, "verify", "--q", "4", "--n", "2", "--m", "2",
                           "--which", "pi0", "--output", "json")
    (row,) = json.loads(out)["results"]
    assert code == 1 and row["status"] == "fail"
    assert row["computed"]["invariant_factors"] == [12]
    assert row["expected"]["invariant_factors"] == [6, 2]


def test_wrong_closed_form_factors_fail_the_pi0_and_h0_rows(capsys, monkeypatch):
    # unit_group realizes the closed-form factors; [12] at (q, m) = (4, 2),
    # whose factors are [6, 2], has no generator basis
    import omod.pi0 as pi0_mod

    monkeypatch.setattr(pi0_mod, "expected_invariant_factors", lambda p, f, m: [12])
    code, out, _ = run_cli(capsys, "verify", "--q", "4", "--n", "2", "--m", "2",
                           "--which", "pi0,h0", "--output", "json")
    doc = json.loads(out)
    assert code == 1 and doc["failures"] == 2
    assert [r["check"] for r in doc["results"]] == ["pi0", "h0"]
    assert all(r["status"] == "fail" and "no generator basis" in r["witness"]
               for r in doc["results"])


@pytest.mark.parametrize("q,n,m", [(2, 4, 2), (3, 2, 2)])
def test_limits_are_skipped_not_failed(capsys, q, n, m):
    # roots outside the field (ExtensionRequired) are a limit of the root
    # search, not a counterexample
    code, out, _ = run_cli(capsys, "verify", "--q", str(q), "--n", str(n), "--m", str(m),
                           "--which", "product,determinant", "--output", "json")
    doc = json.loads(out)
    assert code == 0 and doc["failures"] == 0
    assert [r["status"] for r in doc["results"]] == ["skipped", "skipped"]
    assert all(r["computed"].startswith("not computed: ") for r in doc["results"])


def test_precision_exhaustion_is_skipped_not_failed(capsys):
    # at --prec 64 the (3, 1, 3) determinant decode can compare sigma_a(mu)
    # with [c](mu) only on 33 jointly known terms, short of the 40 it needs
    code, out, _ = run_cli(capsys, "verify", "--q", "3", "--n", "1", "--m", "3",
                           "--which", "determinant", "--output", "json")
    (row,) = json.loads(out)["results"]
    assert code == 0 and row["status"] == "skipped"
    assert row["computed"] == "not computed: joint window [1, 34) has fewer than 40 terms"


def test_wide_slot_product_and_determinant_pass(capsys):
    # at --prec 128 the packed series products of (2, 2, 3) need 2-byte slots
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "3", "--prec", "128",
                           "--which", "product,determinant", "--output", "json")
    doc = json.loads(out)
    assert code == 0
    assert [r["status"] for r in doc["results"]] == ["pass", "pass"]


GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


@pytest.mark.parametrize("q,n,m,prec,which", [
    (2, 2, 3, 128, "determinant,product"),
    (3, 2, 2, 256, "determinant,product"),
    (2, 3, 2, 512, "determinant,product"),
    (4, 2, 2, 1024, "determinant"),
    (2, 2, 4, 1024, "determinant,product"),
    (2, 1, 8, 1024, "determinant,product"),
    (3, 2, 2, None, "pi0,h0"),
    (2, 3, 1, None, "pi0,h0"),
])
def test_high_precision_rows_pass_with_golden_bytes(capsys, q, n, m, prec, which):
    # substitutions at these precisions reach powers in the hundreds and
    # thousands, and the pi0 rows rest on seeded samples; the golden files
    # pin each report byte for byte
    precision = [] if prec is None else ["--prec", str(prec)]
    code, out, _ = run_cli(capsys, "verify", "--q", str(q), "--n", str(n), "--m", str(m),
                           *precision, "--which", which, "--output", "json", "--seed", "7")
    assert code == 0
    assert [r["status"] for r in json.loads(out)["results"]] == ["pass"] * len(which.split(","))
    name = "verify_q%d_n%d_m%d%s%s.json" % (
        q, n, m, "" if prec is None else "_prec%d" % prec,
        "" if which == "determinant,product" else "_" + which.replace(",", "_"))
    with open(os.path.join(GOLDEN, name)) as fh:
        assert out == fh.read()


def test_high_precision_tower_golden_bytes(capsys):
    # three levels solved at precision 512, and the rank-2 height-2 tower at
    # m = 2, whose coordinate order (lexicographic on t-digits) differs from
    # the order of the integer codes; the level series and the 16 torsion
    # points of each are pinned byte for byte
    cases = {"tower_q2_m4_prec512.json": ("--q", "2", "--m", "4", "--prec", "512"),
             "tower_q2_n2_m2_cm.json": ("--q", "2", "--n", "2", "--m", "2", "--cm")}
    for name, argv in cases.items():
        code, out, _ = run_cli(capsys, "tower", *argv, "--output", "json")
        assert code == 0
        with open(os.path.join(GOLDEN, name)) as fh:
            assert out == fh.read()


# sha256 of `omod tower ... --output json` from the level solve by substitution
# that the Newton solve in each level's own field replaced: ten levels at
# precision 2048, and the three levels of the q = 3 height-2 tower
TOWER_SHA256 = {
    ("--q", "2", "--m", "10", "--prec", "2048"):
        "9b27ac727b77f19805553a5ef14c98e4460af24f4a7ed8bf2ccbdf5add988194",
    ("--q", "3", "--n", "2", "--m", "3", "--cm", "--prec", "256"):
        "d97d63a1dc0cb638440576687f43cc23301ee1bfdcae49d0739751c3fc7bfd60",
}


@pytest.mark.parametrize("argv", sorted(TOWER_SHA256))
def test_tower_bytes_at_scale(capsys, argv):
    code, out, _ = run_cli(capsys, "tower", *argv, "--output", "json")
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == TOWER_SHA256[argv]


def test_other_errors_stay_failures(capsys):
    # q = 8: the wild-branch relation does not converge (NoConvergence), which
    # is no declared limit, so the unit-coefficient row fails with its witness
    code, out, _ = run_cli(capsys, "verify", "--q", "8", "--n", "2", "--m", "1",
                           "--which", "kernel-height", "--output", "json")
    doc = json.loads(out)
    (row,) = [r for r in doc["results"]
              if r["parameters"]["specialization"] == "unit-coefficient"]
    assert row["status"] == "fail" and "expected e = 7" in row["witness"]
    assert code == 1 and doc["failures"] == 1


def test_config_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "9")
    assert code == 2 and "degree cap" in err
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--m", "1", "--prec", "4")
    assert code == 2 and "precision" in err
    code, _, err = run_cli(capsys, "verify", "--q", "12", "--m", "1")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--q", "2", "--m", "1",
                           "--which", "nonsense")
    assert code == 2
    # at m = 0 the cap is checked on q^(n*max(m,1)) = 2^13, and that is the
    # degree the message names
    code, _, err = run_cli(capsys, "tower", "--q", "2", "--n", "13", "--m", "0")
    assert code == 2
    assert err == "configuration error: q^(n*max(m,1)) = 8192 exceeds the degree cap 4096\n"


def test_q_alone_runs_over_gf4(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "4", "--m", "1",
                           "--which", "h0", "--output", "json")
    config = json.loads(out)["config"]
    assert code == 0 and (config["p"], config["f"], config["q"]) == (2, 2, 4)


_RECORD = {"check": "h0", "claim": "c", "parameters": {"q": 2}, "computed": 1,
           "expected": 1, "status": "pass", "source": "enumeration"}


# a degree past the cap's exponent range is rejected without forming q^(n*m)
_OVER_CAP = (("verify", "--q", "3", "--n", "3000", "--m", "3000"),
             ("tower", "--q", "2", "--m", "1000000"))


@pytest.mark.parametrize("argv,document", [
    (("verify", "--q", "2", "--n", "0", "--m", "1"), None),
    (("verify", "--q", "2", "--n", "-1", "--m", "1"), None),
    (("verify", "--q", "257", "--m", "1"), None),
    # field arguments fail fast: a large q is not searched up to itself
    (("verify", "--q", "1000003", "--m", "1"), None),
    (("verify", "--q", "10000019", "--m", "1"), None),
    (("verify", "--q", "1000000000000037", "--m", "1"), None),
    (("verify", "--q", "2", "--m", "1", "--which", ","), None),
    # --q is the one field flag: --p stands in for no --q, and --p, --f and
    # --cache-dir are unknown to argparse whatever their values (--p is no
    # prefix of --prec)
    (("verify", "--m", "1", "--p", "2"), None),
    (("report",), []),
    (("report",), {"schema": SCHEMA, "config": {}}),
    (("report",), {"schema": SCHEMA, "config": {}, "failures": 0,
                   "results": [{k: v for k, v in _RECORD.items() if k != "claim"}]}),
    (("verify", "--q", "2", "--m", "1", "--p", "2"), None),
    (("tower", "--q", "2", "--p", "2"), None),
    (("verify", "--q", "2", "--m", "1", "--f", "1"), None),
    (("tower", "--q", "2", "--f", "1"), None),
    (("verify", "--q", "16", "--m", "1", "--p", "2", "--f", "4"), None),
    (("tower", "--q", "3", "--m", "2", "--cache-dir"), ""),
    (("verify", "--q", "2", "--n", "2", "--m", "1", "--which", "valuations", "--cache-dir"), ""),
    (("verify", "--q", "4", "--m", "1", "--f", "2"), None),
    # --cm is tower's flag and --seed verify's
    (("verify", "--q", "2", "--m", "1", "--cm"), None),
    (("tower", "--q", "2", "--m", "1", "--seed", "1"), None),
    *[(argv, None) for argv in _OVER_CAP],
])
def test_bad_arguments_and_documents_exit_2_before_computing(capsys, monkeypatch, tmp_path,
                                                            argv, document):
    import omod.cli as cli_mod

    def no_computation(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("cm_tower", "unit_group", "pi0_action_table", "h0_decomposition"):
        monkeypatch.setattr(cli_mod, name, no_computation)
    if document is not None:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(document))
        argv = argv + (str(path),)
    code, out, err = run_cli_or_argparse(capsys, *argv)
    assert code == 2 and out == ""
    unknown = ("--p", "--f", "--cache-dir", "--cm" if argv[0] == "verify" else "--seed")
    removed = [i for i, arg in enumerate(argv) if arg in unknown]
    if not removed:
        assert len(err.splitlines()) == 1
        assert err.startswith(("configuration error:", "i/o error:"))
        assert argv not in _OVER_CAP or "degree cap" in err
    elif "--q" in argv:
        assert err.endswith("omod: error: unrecognized arguments: %s\n"
                            % " ".join(argv[removed[0]:]))
    else:
        assert err.endswith("error: the following arguments are required: --q\n")


@pytest.mark.parametrize("argv", [
    ("tower", "--q", "3", "--m", "2"),
    ("verify", "--q", "2", "--n", "2", "--m", "1", "--which", "valuations"),
])
def test_cache_dir_exits_2_before_computing_and_creates_nothing(capsys, monkeypatch,
                                                                tmp_path, argv):
    import omod.cli as cli_mod

    def no_computation(*args, **kwargs):
        raise AssertionError("computation started")

    for name in ("cm_tower", "unit_group", "pi0_action_table"):
        monkeypatch.setattr(cli_mod, name, no_computation)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--cache-dir", str(tmp_path / "cache")])
    assert exc.value.code == 2 and capsys.readouterr().out == ""
    assert os.listdir(tmp_path) == []


def test_cache_env_var(capsys, monkeypatch, tmp_path):
    # OMOD_CACHE_DIR is ignored: nothing is written there, and the bytes are
    # those of a run without it
    for argv in (("tower", "--q", "3", "--m", "2", "--output", "json"),
                 ("verify", "--q", "3", "--m", "2", "--which", "valuations",
                  "--output", "json", "--seed", "7")):
        monkeypatch.delenv("OMOD_CACHE_DIR", raising=False)
        unset = run_cli(capsys, *argv)
        monkeypatch.setenv("OMOD_CACHE_DIR", str(tmp_path / "cache"))
        assert run_cli(capsys, *argv) == unset and unset[0] == 0
        assert os.listdir(tmp_path) == []


def test_report_of_a_missing_file_is_an_io_error(capsys, tmp_path):
    code, out, err = run_cli(capsys, "report", str(tmp_path / "missing.json"))
    assert code == 2 and out == ""
    assert err.startswith("i/o error:") and len(err.splitlines()) == 1


def test_json_reports_are_byte_identical(capsys):
    args = ("verify", "--q", "3", "--m", "2", "--which", "character,h0",
            "--output", "json", "--seed", "7")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == SCHEMA
    assert doc["config"]["seed"] == 7
    assert all("elapsed" not in r for r in doc["results"])


def test_csv_output(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--m", "1",
                           "--which", "h0", "--output", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("check,claim,parameters")


def test_report_merge_union(capsys, tmp_path):
    f1 = tmp_path / "a.json"
    f2 = tmp_path / "b.json"
    run = lambda which, path: main(["verify", "--q", "2", "--n", "2", "--m", "1",
                                    "--which", which, "--output", "json"])
    code = main(["verify", "--q", "2", "--n", "2", "--m", "1",
                 "--which", "h0", "--output", "json"])
    out = capsys.readouterr().out
    f1.write_text(out)
    main(["verify", "--q", "2", "--n", "2", "--m", "1",
          "--which", "level-count", "--output", "json"])
    out = capsys.readouterr().out
    f2.write_text(out)
    code, out, _ = run_cli(capsys, "report", str(f1), str(f2))
    assert code == 0
    assert "coverage matrix" in out
    assert "h0" in out and "level-count" in out


def test_report_conflicting_duplicates_rejected():
    rec = {"check": "x", "claim": "c", "parameters": {"q": 2},
           "computed": 1, "expected": 1, "status": "pass", "source": "s"}
    doc1 = {"schema": SCHEMA, "config": {}, "results": [rec], "failures": 0}
    rec_bad = dict(rec, status="fail", computed=0)
    doc2 = {"schema": SCHEMA, "config": {}, "results": [rec_bad], "failures": 1}
    with pytest.raises(SchemaMismatch):
        merge_documents([doc1, doc2])
    # identical duplicates collapse fine
    merged = merge_documents([doc1, doc1])
    assert len(merged["results"]) == 1


def test_report_unknown_schema_rejected():
    with pytest.raises(SchemaMismatch):
        merge_documents([{"schema": "bogus/9", "results": []}])


@pytest.mark.parametrize("q,n,m", [(q, n, m) for q in (2, 3) for n in (1, 2) for m in (0, 1)]
                         + [(2, 1, 2)])
def test_verify_grid_exits_cleanly(capsys, q, n, m):
    code, out, err = run_cli(capsys, "verify", "--q", str(q), "--n", str(n), "--m", str(m),
                             "--output", "json")
    if m == 0:
        assert code == 2 and "configuration error" in err and out == ""
        return
    doc = json.loads(out)
    assert code == (1 if doc["failures"] else 0)
    if n == 1:
        (row,) = [r for r in doc["results"]
                  if r["parameters"].get("specialization") == "unit-coefficient"]
        assert row["status"] == "skipped" and "out of range" in row["computed"]


def counting(calls, fn, index=1):
    """fn, recording in calls its argument at index (the level, by default)."""
    def wrapper(*args, **kwargs):
        calls.append(args[index])
        return fn(*args, **kwargs)
    return wrapper


def test_verify_builds_one_tower_per_height_per_run(capsys, monkeypatch):
    # every torsion chain is built by build_torsion_chain, whichever module
    # calls it, and product and determinant read one base chain search
    import omod.cli as cli_mod
    import omod.formalmod as formalmod_mod
    import omod.lubintate as lubintate_mod

    built, chains, searches = [], [], []
    monkeypatch.setattr(cli_mod, "cm_tower", counting(built, cm_tower, 2))
    for module in (formalmod_mod, lubintate_mod):
        monkeypatch.setattr(module, "build_torsion_chain",
                            counting(chains, module.build_torsion_chain))
    monkeypatch.setattr(lubintate_mod, "locate_base_torsion_chain",
                        counting(searches, lubintate_mod.locate_base_torsion_chain))
    args = ("verify", "--q", "2", "--n", "2", "--m", "2", "--output", "json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0 and sorted(built) == [1, 2]
    assert chains == [2, 2] and searches == [2]
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and sorted(built) == [1, 1, 2, 2]
    assert chains == [2, 2] * 2 and searches == [2, 2]
    assert first == second


def test_a_failed_tower_build_is_attempted_once_per_run(capsys, monkeypatch):
    # F_512, the base of the (8, 3) tower, has no published modulus: every
    # height-3 row reads the one failed build and is skipped with its message
    import omod.cli as cli_mod

    built = []
    monkeypatch.setattr(cli_mod, "cm_tower", counting(built, cm_tower, 2))
    code, out, _ = run_cli(capsys, "verify", "--q", "8", "--n", "3", "--m", "1", "--prec", "513",
                           "--which", "valuations,product,determinant,level-count,kernel-height",
                           "--output", "json")
    rows = [r for r in json.loads(out)["results"]
            if r["parameters"].get("specialization") != "unit-coefficient"]
    assert built == [3]
    assert [(r["check"], r["status"], r["computed"]) for r in rows] == [
        (check, "skipped", "not computed: no published modulus for (p, f) = (2, 9);"
                           " cap is q <= 256")
        for check in ("valuations", "product", "determinant", "level-count", "kernel-height")]


def test_a_height_without_a_residue_field_sets_no_precision_floor(capsys):
    # no --prec builds a tower over F_512, so its height-3 ramification index
    # 512 is no floor: the run goes ahead at --prec 64 and the rows skip with
    # the true reason, as they do at --prec 513
    reason = "not computed: no published modulus for (p, f) = (2, 9); cap is q <= 256"
    code, out, err = run_cli(capsys, "verify", "--q", "8", "--n", "3", "--m", "1",
                             "--which", "character,valuations,pi0", "--output", "json")
    assert code == 0 and err == ""
    assert [(r["check"], r["status"], r["computed"]) for r in json.loads(out)["results"]] == [
        ("character", "pass", {"group_order": 7, "restriction_compatible": True,
                               "tower_degree": 7}),
        ("valuations", "skipped", reason), ("pi0", "skipped", reason)]
    code, out, err = run_cli(capsys, "tower", "--q", "8", "--n", "3", "--m", "1", "--cm")
    assert (code, out) == (1, "") and err == "error: %s\n" % reason.split(": ", 1)[1]


def test_kernel_height_alone_builds_a_level_one_tower(capsys, monkeypatch):
    import omod.cli as cli_mod
    import omod.lubintate as lubintate_mod

    built, chains = [], []
    monkeypatch.setattr(cli_mod, "cm_tower", counting(built, cm_tower, 3))
    monkeypatch.setattr(lubintate_mod, "build_torsion_chain",
                        counting(chains, lubintate_mod.build_torsion_chain))
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "3",
                           "--which", "kernel-height", "--output", "json")
    assert code == 0 and json.loads(out)["failures"] == 0
    assert built == [1] and chains == [1]


def test_verify_builds_one_unit_group_per_run(capsys, monkeypatch):
    import omod.cli as cli_mod
    from omod.pi0 import unit_group

    args = ("verify", "--q", "3", "--n", "2", "--m", "2", "--which", "pi0,h0",
            "--output", "json", "--seed", "7")
    # one group per suite, as each suite built its own
    monkeypatch.setattr(cli_mod.RunConfig, "unit_group",
                        lambda cfg: unit_group((cfg.p, cfg.f), cfg.m))
    code_apart, apart, _ = run_cli(capsys, *args)
    monkeypatch.undo()
    built = []

    def counting_unit_group(pf, m):
        built.append((pf, m))
        return unit_group(pf, m)

    monkeypatch.setattr(cli_mod, "unit_group", counting_unit_group)
    code, shared, _ = run_cli(capsys, *args)
    assert built == [((3, 1), 2)]
    assert code == code_apart == 0 and shared == apart


def test_all_suites_report_equals_single_suite_reports(capsys):
    base = ("verify", "--q", "2", "--n", "2", "--m", "2", "--output", "json", "--seed", "7")
    _, out, _ = run_cli(capsys, *base)
    together = json.loads(out)["results"]
    separate = []
    for name in WHICH_CHOICES:
        _, out, _ = run_cli(capsys, *base, "--which", name)
        separate.extend(json.loads(out)["results"])
    assert together == separate


# the whole report at (2, 6, 1), byte for byte: the closed-fibre row spans a
# rank-6 summand over all 64 kernel vectors
KERNEL_HEIGHT_2_6_1 = (
    '{"config":{"cm":false,"degree_cap":4096,"f":1,"m":1,"n":6,"p":2,"precision":64,"q":2,"seed":0,"which":["kernel-height"]},"failures":0,"results":['
    '{"check":"kernel-height","claim":"kernel rank of the level structure equals the connected height","computed":{"closed_fibre":[6,6],"etale":[0,0]},"expected":{"closed_fibre":[6,6],"etale":[0,0]},"parameters":{"m":1,"n":6,"q":2,"specialization":"etale+closed"},"source":"construction","status":"pass"},'
    '{"check":"kernel-height","claim":"kernel rank of the level structure equals the connected height","computed":"not computed: only 4 of 64 polygon-predicted roots lie in the field (residue enlargement needed)","expected":"rank = height","parameters":{"m":1,"n":6,"q":2,"specialization":"unit-coefficient"},"source":"construction","status":"skipped"}],"schema":"omod-verify-report/1"}\n'
)


def test_kernel_height_at_height_six(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "6", "--m", "1",
                           "--which", "kernel-height", "--output", "json")
    assert code == 0
    assert json.loads(out)["results"][0]["computed"]["closed_fibre"] == [6, 6]
    assert out == KERNEL_HEIGHT_2_6_1
