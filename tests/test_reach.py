"""tools/reach.py: it runs every omod command of the CI step, and it sorts
functions by the runs that reach them."""

import importlib.util
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_reach():
    if "reach" not in sys.modules:
        spec = importlib.util.spec_from_file_location(
            "reach", os.path.join(ROOT, "tools", "reach.py"))
        sys.modules["reach"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules["reach"])
    return sys.modules["reach"]


def test_every_omod_command_of_the_ci_step_is_extracted():
    reach = load_reach()
    script = reach.step_script(reach.WORKFLOW, reach.STEP)
    plain = sum(len(re.findall(r"(?<![\w/.-])omod ", line))
                for line in script if not line.startswith("#"))
    commands = reach.ci_commands()
    assert plain >= 10 and len(commands) == plain
    assert all(argv[0] in ("verify", "tower", "report") for argv, _ in commands)
    assert (["report", "v1.json", "v.json", "--output", "json"], "r.json") in commands
    assert (["verify", "--q", "3", "--n", "30000", "--m", "30000"], None) in commands


def test_functions_are_sorted_by_the_runs_that_reach_them(tmp_path):
    reach = load_reach()
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "mod.py").write_text(
        "def served(x):\n"
        "    if x:\n"
        "        return 1\n"
        "    return 0\n"
        "\n"
        "\n"
        "class Kept:\n"
        "    @staticmethod\n"
        "    def tested():\n"
        "        return 2\n"
        "\n"
        "\n"
        "def unused():\n"
        "    return 3\n")
    spec = importlib.util.spec_from_file_location("mod", package / "mod.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    traffic, benchmark, tests = (reach.Recorder(str(package), lines=True) for _ in range(3))
    with traffic.tracing():
        mod.served(0)
    with tests.tracing():
        mod.Kept.tested()
        mod.served(1)
    units = reach.units(str(package))
    assert [u.name for u in units] == ["mod.served", "mod.Kept.tested", "mod.unused"]
    categories = reach.classify(units, traffic.calls, benchmark.calls, tests.calls)
    assert categories == {"mod.served": "cli/demos", "mod.Kept.tested": "tests only",
                          "mod.unused": "never"}
    text = reach.report(units, categories, {"served", "Kept"}, traffic.lines)
    assert text.splitlines()[0].endswith(
        "3 functions and methods; cli/demos 1, benchmark only 0, tests only 1, never 1; "
        "named by perfbench 1")
    assert "  mod.py:8 mod.Kept.tested\n" in text
    assert "  mod.py:13 mod.unused\n" in text
    assert "  mod.py:1 mod.served [named by perfbench]: 3\n" in text
