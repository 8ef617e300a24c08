"""The library runs on numpy alone; scipy is only the tests' oracle.  Its
modules import nothing they do not use and define nothing no one calls."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

SCRIPT = """
import sys

from schottky import (Circle, CircularDomain, PrimeEvaluator, integrals_first_kind,
                      solve_harmonic_measures)
from schottky.distance import ball_raster
from schottky.propermaps import build_proper_map, make_zero_config
import schottky.cli, schottky.verify

annulus = CircularDomain((Circle(0j, 0.25),))
model = solve_harmonic_measures(annulus)
f = build_proper_map(PrimeEvaluator(annulus, max_word_length=4), integrals_first_kind(model),
                     make_zero_config(model, [0.5, -0.5], (1, 1)))
f([0.7j, 0.3])
model.residual
triply = CircularDomain((Circle(-0.5 + 0j, 0.1), Circle(0.5 + 0j, 0.1)))
raster = ball_raster(solve_harmonic_measures(triply), None, None, 0.3j, 0.6, resolution=20)
raster.relabel(0.7)
raster.component_has_disk(1)
raster.touches_domain_boundary(1)
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def test_library_loads_no_scipy():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    out = subprocess.run([sys.executable, "-c", SCRIPT], capture_output=True, text=True,
                         env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == [], out.stdout


def _unused_imports(path):
    """(line, name) of each name a module imports and neither reads nor
    lists in ``__all__``."""
    tree = ast.parse(path.read_text())
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(node.lineno, (a.asname or a.name).split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(node.lineno, a.asname or a.name) for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return [(line, name) for line, name in imported if name not in used]


def test_every_imported_name_is_used():
    package = Path(__file__).resolve().parent.parent / "src" / "schottky"
    unused = {f"{path.name}:{line} {name}"
              for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for line, name in _unused_imports(path)}
    assert not unused, sorted(unused)


def _references(tree):
    """How often each name is read, as a name or an attribute, or imported
    by name."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def _public_definitions(tree):
    """The module's public functions and classes and their public methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node
            if isinstance(node, ast.ClassDef):
                yield from (item for item in node.body if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def test_every_public_definition_is_used():
    # a name listed in __all__ alone is no use: it must be read somewhere
    # outside its own definition, in the library, the tests or the demos
    root = Path(__file__).resolve().parent.parent
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "tests", "demos")
             for path in sorted((root / folder).rglob("*.py"))}
    refs = Counter()
    for tree in trees.values():
        refs.update(_references(tree))
    unused = [f"{path.name}:{node.lineno} {node.name}"
              for path in sorted((root / "src" / "schottky").glob("*.py"))
              for node in _public_definitions(trees[path])
              if refs[node.name] <= _references(node)[node.name]]
    assert not unused, unused
