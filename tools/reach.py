"""Which functions of src/omod real traffic runs, and which only the tests.

Real traffic is:

- every `omod ...` command of the installed-script step of
  .github/workflows/tier1.yml, read from the workflow file and run in-process
  through omod.cli.main, in a temporary directory (a `> file` redirect writes
  that file there, so `omod report` reads what earlier commands wrote);
- the scripts in demos/;
- one pass of each perfbench workload (perfbench/workloads.py, imported
  read-only), with a null timer and a temporary work directory.

The traffic runs under a line tracer; then the tier-1 suite runs in the same
process, from the repository root, under a call-only tracer (it takes about
four times its untraced time).  Each top-level function and method of
src/omod, its nested functions included, is then reached by the CLI or
demos, by the benchmark only, by tests only, or never.  A function is "named
by perfbench" when some perfbench/*.py file names it: a function by its
name, a method by its name and its class's name (as an identifier, an
attribute or a string).  Deleting such a function needs a benchmark change.

    python tools/reach.py

prints the counts, the tests-only and never lists, and for each function
real traffic reaches the lines it never runs.  The tier-1 suite's output
goes to stderr, and the exit code is the suite's.

It needs only the standard library (and pytest for the tier-1 run).  Only
this process is traced, so a test that runs omod in a subprocess counts for
nothing.  No bytecode is written, so no __pycache__ is left in src/omod or
perfbench/ to bias the benchmark's setup_s and peak_rss_mb.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import io
import os
import runpy
import shlex
import sys
import tempfile
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "omod")
WORKFLOW = os.path.join(ROOT, ".github", "workflows", "tier1.yml")
STEP = "installed omod console script"
SEED = 7
CATEGORIES = ("cli/demos", "benchmark only", "tests only", "never")
SHELL_OPERATORS = ("&", "|", ">", "<", "2>", ";")   # a token starting so ends a command


@dataclass(frozen=True)
class Unit:
    """One top-level function or method: lines start..end (decorators
    included) of path, and the lines of its body that hold code."""

    path: str
    name: str          # module.function or module.Class.method
    start: int
    end: int
    lines: frozenset


def units(package_dir):
    """Every top-level function and method of the modules in package_dir."""
    out = []
    for fname in sorted(os.listdir(package_dir)):
        if not fname.endswith(".py"):
            continue
        path = os.path.join(os.path.abspath(package_dir), fname)
        with open(path) as fh:
            source = fh.read()
        code_lines = _code_lines(compile(source, path, "exec", dont_inherit=True))
        module = fname[:-3]
        for qualname, node in _defs(ast.parse(source, path).body, module):
            start = min([node.lineno] + [d.lineno for d in node.decorator_list])
            body = range(node.body[0].lineno, node.end_lineno + 1)
            out.append(Unit(path, qualname, start, node.end_lineno,
                            frozenset(line for line in body if line in code_lines)))
    return out


def _defs(body, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + "." + node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, prefix + "." + node.name)


def _code_lines(code):
    """The lines that hold bytecode in code and the code objects nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


class Recorder:
    """The code objects called (and, with lines, the lines run) in files
    under root, while tracing() is on; nothing else is traced."""

    def __init__(self, root, lines=False):
        self.root = os.path.join(os.path.abspath(root), "")
        self.calls = set()     # (path, first line) of each code object called
        self.lines = set()     # (path, line) of each line run
        self.trace_lines = lines

    def _tracer(self):
        root, calls, lines, trace_lines = self.root, self.calls, self.lines, self.trace_lines
        paths = {}             # co_filename -> its absolute path, or None outside root

        def call(frame, event, arg):
            code = frame.f_code
            try:
                path = paths[code.co_filename]
            except KeyError:
                path = os.path.abspath(code.co_filename)
                path = paths[code.co_filename] = path if path.startswith(root) else None
            if path is None:
                return None
            calls.add((path, code.co_firstlineno))
            if not trace_lines:
                return None

            def line(frame, event, arg):
                if event == "line":
                    lines.add((path, frame.f_lineno))
                return line
            return line
        return call

    @contextlib.contextmanager
    def tracing(self):
        previous = sys.gettrace()
        sys.settrace(self._tracer())
        try:
            yield self
        finally:
            sys.settrace(previous)


def classify(all_units, traffic, benchmark, tests):
    """unit name -> category, from the call sets of the three kinds of run."""
    def index(calls):
        by_path = {}
        for path, line in calls:
            by_path.setdefault(path, []).append(line)
        return by_path

    runs = [index(calls) for calls in (traffic, benchmark, tests)]
    out = {}
    for unit in all_units:
        category = "never"
        for name, run in zip(CATEGORIES, runs):
            if any(unit.start <= line <= unit.end for line in run.get(unit.path, ())):
                category = name
                break
        out[unit.name] = category
    return out


def perfbench_names(perfbench_dir):
    """Every identifier that a perfbench/*.py file uses: names, attributes,
    imported names and identifier strings."""
    names = set()
    for fname in sorted(os.listdir(perfbench_dir)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(perfbench_dir, fname)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.update(node.name.split("."))
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and node.value.isidentifier():
                names.add(node.value)
    return names


def named_by(unit, names):
    """A function by its name, a method by its name and its class's name."""
    parts = unit.name.split(".")[1:]
    return all(part in names for part in parts[-2:])


# --- the traffic ---------------------------------------------------------------


def step_script(workflow, step):
    """The lines of the `run: |` block of the workflow step with this name."""
    with open(workflow) as fh:
        lines = fh.read().splitlines()
    starts = [i for i, line in enumerate(lines) if line.strip() == "- name: " + step]
    if not starts:
        raise ValueError("no step %r in %s" % (step, workflow))
    i = starts[0] + 1
    while not lines[i].strip().startswith("run:"):
        i += 1
    indent = len(lines[i]) - len(lines[i].lstrip())
    script = []
    for line in lines[i + 1:]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        script.append(line.strip())
    return script


def ci_commands(workflow=WORKFLOW):
    """(argv, stdout file or None) of each omod command of the installed-script
    step, in order."""
    out = []
    for line in step_script(workflow, STEP):
        tokens = shlex.split(line, comments=True)
        for i, token in enumerate(tokens):
            if token != "omod":
                continue
            argv, stdout = [], None
            rest = iter(tokens[i + 1:])
            for arg in rest:
                if arg == ">":
                    stdout = next(rest)
                if arg.startswith(SHELL_OPERATORS):
                    break
                argv.append(arg.rstrip(";"))
                if arg.endswith(";"):
                    break
            out.append((argv, stdout))
    return out


def run_ci_commands(work_dir):
    from omod import cli

    codes = []
    for argv, stdout in ci_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                codes.append(cli.main(argv))
            except SystemExit as exc:        # argparse rejected the arguments
                codes.append(exc.code)
        if stdout is not None:
            with open(os.path.join(work_dir, stdout), "w") as fh:
                fh.write(out.getvalue())
    return codes


def run_demos():
    demos = os.path.join(ROOT, "demos")
    for fname in sorted(os.listdir(demos)):
        if fname.endswith(".py"):
            with contextlib.redirect_stdout(io.StringIO()):
                runpy.run_path(os.path.join(demos, fname), run_name="__main__")


def run_benchmark(work_dir):
    """One pass of each workload; perfbench/ is only imported."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    try:
        import workloads
        for name, workload in workloads.WORKLOADS.items():
            os.makedirs(os.path.join(work_dir, name))
            workload(SEED, os.path.join(work_dir, name)).run_pass(contextlib.nullcontext)
    finally:
        sys.path.remove(os.path.join(ROOT, "perfbench"))


def run_tests():
    import pytest

    with contextlib.redirect_stdout(sys.stderr):      # stdout carries the report
        return pytest.main(["-q", "-p", "no:cacheprovider", "--continue-on-collection-errors",
                            os.path.join(ROOT, "tests")])


# --- the report ----------------------------------------------------------------


def _ranges(lines):
    """1, 2, 3, 5 -> "1-3, 5"."""
    out, lines = [], sorted(lines)
    for i, line in enumerate(lines):
        if i and line == lines[i - 1] + 1:
            out[-1][1] = line
        else:
            out.append([line, line])
    return ", ".join(str(a) if a == b else "%d-%d" % (a, b) for a, b in out)


def report(all_units, categories, names, traced_lines):
    """The counts, the tests-only and never lists, and the lines that real
    traffic (traced_lines: (path, line) pairs) never runs in each function
    it reaches."""
    counts = {c: sum(1 for u in all_units if categories[u.name] == c) for c in CATEGORIES}
    named = sum(1 for u in all_units if named_by(u, names))
    out = ["src/omod reach (tools/reach.py): %d functions and methods; %s; named by perfbench %d"
           % (len(all_units), ", ".join("%s %d" % kv for kv in counts.items()), named)]

    def entry(unit):
        flag = " [named by perfbench]" if named_by(unit, names) else ""
        return "%s:%d %s%s" % (os.path.basename(unit.path), unit.start, unit.name, flag)

    unrun = {u.name: [line for line in u.lines if (u.path, line) not in traced_lines]
             for u in all_units if categories[u.name] in CATEGORIES[:2]}
    sections = [(c, [entry(u) for u in all_units if categories[u.name] == c])
                for c in ("tests only", "never")]
    sections.append(("lines real traffic never runs", [
        "%s: %s" % (entry(u), _ranges(unrun[u.name])) for u in all_units if unrun.get(u.name)]))
    for title, rows in sections:
        out.append("%s (%d):" % (title, len(rows)))
        out.extend("  " + row for row in rows)
    return "\n".join(out) + "\n"


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args(argv)
    sys.dont_write_bytecode = True
    sys.path.insert(0, os.path.join(ROOT, "src"))
    traffic, benchmark = Recorder(PACKAGE, lines=True), Recorder(PACKAGE, lines=True)
    tests = Recorder(PACKAGE)
    cwd = os.getcwd()
    try:
        with tempfile.TemporaryDirectory() as work_dir:
            os.chdir(work_dir)
            with traffic.tracing():
                codes = run_ci_commands(work_dir)
                run_demos()
            with benchmark.tracing():
                run_benchmark(work_dir)
            os.chdir(ROOT)
        with tests.tracing():
            status = run_tests()
    finally:
        os.chdir(cwd)
    all_units = units(PACKAGE)
    categories = classify(all_units, traffic.calls, benchmark.calls, tests.calls)
    sys.stdout.write(report(all_units, categories, perfbench_names(os.path.join(ROOT, "perfbench")),
                            traffic.lines | benchmark.lines))
    print("traffic: %d CLI commands (%d exited 2), the demos, one pass of each workload"
          % (len(codes), codes.count(2)), file=sys.stderr)
    if status:
        print("the tier-1 run under the tracer exited %d" % status, file=sys.stderr)
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
