"""The library runs on numpy alone; scipy is only the tests' oracle.  Its
modules import nothing they do not use, define nothing no one calls, assign
no local they do not read, offer no setting that no caller sets and branch
on the disk only where the general code cannot serve it."""

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


def _own_nodes(fn):
    """The nodes of a function's body outside its nested scopes."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def test_every_local_is_read():
    # a name a function assigns and nothing in it (nested functions
    # included) reads is dead; throwaway names start with "_"
    package = Path(__file__).resolve().parent.parent / "src" / "schottky"
    unread = []
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if not isinstance(fn, ast.FunctionDef):
                continue
            stored = {n.id for n in _own_nodes(fn)
                      if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)}
            read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
            read |= {n.target.id for n in ast.walk(fn)
                     if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
            unread += [f"{path.stem}.{fn.name}.{name}" for name in sorted(stored - read)
                       if not name.startswith("_")]
    assert not unread, unread


# Every test of the genus g on zero in the library, by function and
# expression, with the reason the general code does not serve the disk
# there.  On the disk the first-kind integrals are empty, there are no
# generators and the word ball is the identity, so the general code covers
# everything else.
_DISK_BRANCHES = {
    "distance._ExtremalSearch.optimize: g == 0": "the disk's c* is an exact closed form",
    "distance.ball_raster: search.g == 0": "the disk's values are the closed form",
    "distance.ball_raster: search.g": "the disk's chart has no foot angles to polish",
    "harmonic.GreenFunction._fit: d.g == 0": "no inner circle to reflect the pole in",
    "harmonic.HarmonicModel.normal_derivative_matrix: g":
        "the condition number of an empty matrix",
    "group.enumerate_words: g < 0": "the input check",
    "prime.PrimeEvaluator.functional_equation_residual: self.domain.g == 0":
        "vacuous: there is no generator j",
    "slitmaps.eta_j_relation_residual: ev.domain.g == 0": "vacuous: there is no circle j",
    "propermaps.from_boundary_data: g": "alpha on the disk, with no inner measure",
    "propermaps.from_boundary_data: g and best is not None":
        "no derivative ratios on the disk",
}


def _is_genus(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "g") or (
        isinstance(node, ast.Attribute) and node.attr == "g")


def _disk_branches(module, tree):
    """The site, as "module.qualified.function: expression", of each
    comparison of g (a name or an attribute) with 0 or 1 and of each truth
    test of g (if, conditional expression, while, and/or, not)."""
    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = [*scope, node.name]
        hit = None
        if isinstance(node, ast.Compare):
            ops = [node.left, *node.comparators]
            if any(_is_genus(a) and isinstance(b, ast.Constant) and b.value in (0, 1)
                   for x, y in zip(ops, ops[1:]) for a, b in ((x, y), (y, x))):
                hit = node
        elif isinstance(node, (ast.If, ast.IfExp, ast.While)) and _is_genus(node.test):
            hit = node.test
        elif isinstance(node, ast.BoolOp) and any(map(_is_genus, node.values)):
            hit = node
        elif (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
              and _is_genus(node.operand)):
            hit = node
        if hit is not None:
            yield f"{module}.{'.'.join(scope)}: {ast.unparse(hit)}"
        for child in ast.iter_child_nodes(node):
            yield from visit(child, scope)

    return visit(tree, [])


def test_disk_branches_are_listed():
    # a new disk branch needs a reason here; a listed one that is gone
    # leaves the list
    package = Path(__file__).resolve().parent.parent / "src" / "schottky"
    found = Counter(site for path in sorted(package.glob("*.py"))
                    for site in _disk_branches(path.stem, ast.parse(path.read_text())))
    listed = Counter(_DISK_BRANCHES.keys())
    assert found == listed, {"unlisted": sorted(found - listed),
                             "stale": sorted(listed - found)}
