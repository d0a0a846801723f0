"""The package exports only names that the package, its demos or the benchmark
use: a name that only its own tests reference belongs in the tests."""

import ast
import glob
import os

import omod

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
INIT = os.path.join(ROOT, "src", "omod", "__init__.py")


def exported_names():
    """Names that omod/__init__.py imports, a star import expanded."""
    with open(INIT) as fh:
        tree = ast.parse(fh.read())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name == "*":
                    module = getattr(omod, node.module)
                    names.update(k for k in vars(module) if not k.startswith("_")
                                 and getattr(vars(module)[k], "__module__", None)
                                 == module.__name__)
                else:
                    names.add(alias.asname or alias.name)
    return names


def used_names(path):
    """Names loaded or read as attributes in a file, outside the body of the
    function or class that has the same name."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            used.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    with open(path) as fh:
        visit(ast.parse(fh.read()), frozenset())
    return used


def test_every_export_is_used_outside_the_tests():
    paths = [p for d in ("src/omod", "demos", "perfbench")
             for p in glob.glob(os.path.join(ROOT, d, "**", "*.py"), recursive=True)
             if os.path.abspath(p) != INIT]
    used = set().union(*(used_names(p) for p in paths))
    exported = exported_names()
    assert {"FormalOModule", "OmodError", "torsion_points"} <= exported
    assert sorted(exported - used) == []
