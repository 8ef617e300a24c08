"""The library runs on numpy alone; scipy is only the tests' oracle.  Its
modules import nothing they do not use, define nothing no one calls and
offer no setting that no caller sets."""

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


# Settings that no call in the library or the CLI passes, each with the
# reason it stays settable.  Tests and demos do not count as callers.
_UNSET_SETTINGS = {
    "distance.find_disconnected_ball(base_circles)":
        "witness geometry, kept for a sweep over geometries",
    "distance.find_disconnected_ball(shrink_center)":
        "witness geometry, kept for a sweep over geometries",
    "distance.find_disconnected_ball(zeta_gap)":
        "witness geometry, kept for a sweep over geometries",
    "prime.PrimeEvaluator(enumeration)":
        "lets test_prime substitute a mirrored half set",
    "distance.caratheodory_distance(opts)": "mirrors mobius_distance(opts)",
    "propermaps.boundary_degree(samples)":
        "a pinned map in test_propermaps needs 4096 samples",
    "env SCHOTTKY_MAX_WORDS": "the word-ball resource limit, set by the environment",
}


def _settings(module, tree):
    """(key, callee name, how it is called, parameter name, positional
    index or None) of each defaulted parameter of the module's public functions, public methods and
    public classes' constructors, and of each field of DistanceOptions.
    ``how`` is "function" (called as f(...) or mod.f(...)), "method"
    (obj.m(...), self first) or "class" (Cls(...), self first)."""
    def defaulted(fn):
        a = fn.args
        pos = [p.arg for p in a.posonlyargs + a.args]
        yield from ((pos[i], i) for i in range(len(pos) - len(a.defaults), len(pos)))
        yield from ((p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None)

    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
            continue
        if isinstance(node, ast.FunctionDef) and (module, node.name) != ("cli", "main"):
            for name, i in defaulted(node):
                yield f"{module}.{node.name}({name})", node.name, "function", name, i
        elif isinstance(node, ast.ClassDef) and module != "errors":
            if node.name == "DistanceOptions":
                fields = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)
                          and not ast.unparse(item.annotation).startswith("ClassVar")]
                for i, name in enumerate(fields, start=1):
                    yield f"{module}.{node.name}({name})", node.name, "class", name, i
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    for name, i in defaulted(item):
                        yield f"{module}.{node.name}({name})", node.name, "class", name, i
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    for name, i in defaulted(item):
                        yield f"{module}.{node.name}.{item.name}({name})", item.name, "method", name, i


def _passes(call, how, name, index) -> bool:
    """Whether the call passes the parameter, by keyword or by position."""
    if any(k.arg in (name, None) for k in call.keywords):  # None: a ** mapping
        return True
    positional = len(call.args) + (how != "function")
    starred = any(isinstance(a, ast.Starred) for a in call.args)
    return index is not None and (index < positional or starred)


def test_every_setting_has_a_caller():
    # a defaulted parameter, a DistanceOptions field or an environment
    # variable that nothing in the library or the CLI sets is a constant
    # with extra steps: make it one, or give the reason in _UNSET_SETTINGS
    package = Path(__file__).resolve().parent.parent / "src" / "schottky"
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    unset = set()
    for module, tree in trees.items():
        for key, callee, how, name, index in _settings(module, tree):
            if not any(_passes(call, how, name, index) for call in calls
                       if (isinstance(call.func, ast.Name) and how != "method"
                           and call.func.id == callee)
                       or (isinstance(call.func, ast.Attribute) and call.func.attr == callee)):
                unset.add(key)
    unset |= {f"env {call.args[0].value}" for call in calls
              if ast.unparse(call.func) in ("os.environ.get", "os.getenv")}
    assert unset == set(_UNSET_SETTINGS), sorted(unset ^ set(_UNSET_SETTINGS))
