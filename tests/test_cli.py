"""CLI contract: exit codes, determinism, caching, report merging."""

import json
import os

import pytest

from omod.cache import tower_cache_name
from omod.cli import WHICH_CHOICES, main
from omod.lubintate import cm_tower
from omod.report import SCHEMA, merge_documents
from omod.errors import SchemaMismatch


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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


def test_verify_valuations_passes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--n", "2", "--m", "1",
                           "--which", "valuations")
    assert code == 0
    assert "PASS" in out and "1/3" in out


def test_verify_exit_code_counts_failures(capsys, monkeypatch):
    import omod.cli as cli_mod

    def broken(cfg):
        from omod.report import CheckResult

        return [CheckResult("h0", "claim", {}, 1, 2, "fail", witness="forced")]

    monkeypatch.setitem(cli_mod.RUNNERS, "h0", broken)
    code, out, _ = run_cli(capsys, "verify", "--q", "2", "--m", "1",
                           "--which", "h0")
    assert code == 1


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


def test_cached_tower_reports_identical(capsys, tmp_path):
    cache = str(tmp_path / "towers")
    args = ("tower", "--q", "3", "--m", "2", "--output", "json",
            "--cache-dir", cache)
    code1, cold, _ = run_cli(capsys, *args)
    assert code1 == 0
    names = os.listdir(cache)
    assert any(name.startswith("tower_p3_f1_q3_n1_m2") for name in names)
    code2, warm, _ = run_cli(capsys, *args)
    assert code2 == 0
    cold_doc = json.loads(cold)
    warm_doc = json.loads(warm)
    assert warm_doc["from_cache"] is True
    cold_doc.pop("from_cache")
    warm_doc.pop("from_cache")
    assert cold_doc == warm_doc


def test_cache_env_var(capsys, tmp_path, monkeypatch):
    cache = str(tmp_path / "envtowers")
    monkeypatch.setenv("OMOD_CACHE_DIR", cache)
    code, out, _ = run_cli(capsys, "tower", "--q", "3", "--m", "1")
    assert code == 0
    assert os.listdir(cache)


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


def test_corrupt_cache_file_is_rebuilt(capsys, tmp_path):
    cache = str(tmp_path / "towers")
    args = ("tower", "--q", "3", "--m", "2", "--cache-dir", cache, "--output", "json")
    code, cold, _ = run_cli(capsys, *args)
    assert code == 0
    (path,) = [os.path.join(cache, name) for name in os.listdir(cache)]
    with open(path, "r+") as fh:
        fh.truncate(100)
    code, rebuilt, err = run_cli(capsys, *args)
    assert code == 0
    assert len(err.splitlines()) == 1 and err.startswith("warning:")
    assert json.loads(rebuilt)["from_cache"] is False
    assert rebuilt == cold
    code, warm, _ = run_cli(capsys, *args)
    assert code == 0 and json.loads(warm)["from_cache"] is True


@pytest.mark.parametrize("q,n,m", [(q, n, m) for q in (2, 3) for n in (1, 2) for m in (0, 1)]
                         + [(2, 1, 2)])
def test_verify_grid_exits_cleanly(capsys, q, n, m):
    code, out, err = run_cli(capsys, "verify", "--q", str(q), "--n", str(n), "--m", str(m),
                             "--output", "json")
    if m == 0:
        assert code == 2 and "configuration error" in err and out == ""
        return
    doc = json.loads(out)
    assert code == doc["failures"]
    if n == 1:
        (row,) = [r for r in doc["results"]
                  if r["parameters"].get("specialization") == "unit-coefficient"]
        assert row["status"] == "skipped" and "out of range" in row["computed"]


def test_verify_builds_one_tower_per_height_per_run(capsys, monkeypatch):
    import omod.cli as cli_mod

    built = []

    def counting_cm_tower(p, f, n, m, precision):
        built.append(n)
        return cm_tower(p, f, n, m, precision)

    monkeypatch.setattr(cli_mod, "cm_tower", counting_cm_tower)
    monkeypatch.delenv("OMOD_CACHE_DIR", raising=False)
    args = ("verify", "--q", "2", "--n", "2", "--m", "2", "--output", "json")
    code, first, _ = run_cli(capsys, *args)
    assert code == 0 and sorted(built) == [1, 2]
    code, second, _ = run_cli(capsys, *args)
    assert code == 0 and sorted(built) == [1, 1, 2, 2]
    assert first == second


def test_all_suites_report_equals_single_suite_reports(capsys):
    base = ("verify", "--q", "2", "--n", "2", "--m", "2", "--output", "json", "--seed", "7")
    _, out, _ = run_cli(capsys, *base)
    together = json.loads(out)["results"]
    separate = []
    for name in WHICH_CHOICES:
        _, out, _ = run_cli(capsys, *base, "--which", name)
        separate.extend(json.loads(out)["results"])
    assert together == separate


@pytest.mark.parametrize("q,n,m", [(2, 2, 2), (3, 2, 1), (2, 3, 1)])
def test_warm_cache_verify_is_byte_identical(capsys, monkeypatch, tmp_path, q, n, m):
    import omod.cli as cli_mod

    args = ("verify", "--q", str(q), "--n", str(n), "--m", str(m), "--output", "json",
            "--seed", "7", "--cache-dir", str(tmp_path))
    code_cold, cold, _ = run_cli(capsys, *args)
    assert sorted(os.listdir(tmp_path)) == sorted(
        tower_cache_name(q, 1, height, m, 64) for height in {1, n})

    def no_build(*args):
        raise AssertionError("a cached tower was rebuilt")

    monkeypatch.setattr(cli_mod, "cm_tower", no_build)
    code_warm, warm, err = run_cli(capsys, *args)
    assert code_warm == code_cold and warm == cold and err == ""
