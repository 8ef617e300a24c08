"""Runtime span tracer for the schottky benchmark.

The library carries no tracing code.  ``Tracer.install`` replaces the public
callables of each layer module of ``schottky`` with thin wrappers that record
one span per call, and ``Tracer.uninstall`` puts every original object back.
``assert_unwrapped`` proves that nothing is left behind before an untraced
measurement.

A span is (name id, start_ns, end_ns, parent, task): the name id indexes
``Tracer.names``, ``parent`` is the index of the enclosing span (-1 at top
level) and ``task`` the task id set by the benchmark loop (-1 during
set-up).  Spans stay in memory until ``write``.
A name's self time is its span time minus the time of its child spans.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# Layer modules, in the order they are reported.  ``domain``, ``errors`` and
# ``cli`` carry no layer metric: domain predicates run per point inside
# every layer and would only add wrapper overhead.
PACKAGE = "schottky"
LAYERS = ("group", "prime", "harmonic", "slitmaps", "propermaps", "distance", "verify")

# Public helpers called once per word or per letter inside another group
# function; wrapping them would measure the wrapper, not the layer.
_SKIP = {"group": {"word_inverse", "is_reduced", "ball_size", "word_key", "word_cap"}}

# Argument position (after ``self``) of the evaluation points, for the
# callables whose point count feeds a metric.
POINT_ARG = {
    "harmonic.HarmonicModel.eval_u_all": 0,
    "harmonic.HarmonicModel.eval_u": 1,
    "harmonic.HarmonicModel.eval_grad_u": 1,
    "harmonic.HarmonicModel.grad_u_complex": 0,
    "harmonic.HarmonicModel.eval_normal_derivative": 2,
    "harmonic.HarmonicModel.completion": 1,
    "harmonic.HarmonicModel.completion_derivative": 1,
    "harmonic.IntegralsFirstKind.eval_v_all": 0,
    "harmonic.IntegralsFirstKind.eval_v": 1,
    "harmonic.IntegralsFirstKind.v_prime_all": 0,
    "harmonic.IntegralsFirstKind.v_prime": 1,
    "prime.PrimeEvaluator.theta_table": 0,
    "prime.PrimeEvaluator.omega": 0,
    "prime.PrimeEvaluator.omega_with_table": 0,
    "prime.PrimeEvaluator.omega_ratio_with_table": 0,
    "propermaps.ProperMap.__call__": 0,
}

# Prime-product leaves: each multiplies one factor per (point, half-set word).
# omega_ratio delegates to omega_ratio_with_table and is not counted twice.
PRODUCT_LEAVES = (
    "prime.PrimeEvaluator.omega",
    "prime.PrimeEvaluator.omega_with_table",
    "prime.PrimeEvaluator.omega_ratio_with_table",
)

_MARK = "__perfbench_original__"


class Tracer:
    def __init__(self, callers=()):
        """``callers`` are modules outside the package (the benchmark's own)
        whose `from schottky.x import f` bindings are rebound as well."""
        self.callers = tuple(callers)
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.spans: list = []
        self._stack: list[tuple[int, str]] = []  # open spans: (index, layer)
        self.task = -1
        self.counters: dict[str, float] = defaultdict(float)
        self._patches: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def _modules(self):
        mods = {"": importlib.import_module(PACKAGE),
                "cli": importlib.import_module(f"{PACKAGE}.cli")}
        for layer in LAYERS:
            mods[layer] = importlib.import_module(f"{PACKAGE}.{layer}")
        for mod in self.callers:
            mods[mod.__name__] = mod
        return mods

    def _patch(self, owner, attr: str, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> int:
        """Wrap every layer's public callables; returns the number of
        bindings replaced."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = self._modules()
        wrapped: dict[int, tuple] = {}  # id(original) -> (original, wrapper)
        for layer in LAYERS:
            mod = mods[layer]
            skip = _SKIP.get(layer, set())
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if isinstance(obj, type) and obj.__module__ == mod.__name__:
                    self._install_class(layer, obj)
                elif callable(obj) and getattr(obj, "__module__", None) == mod.__name__:
                    if attr in skip:
                        continue
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    wrapped[id(obj)] = (obj, wrapper)
        # scipy's optimizer as bound in the distance module: its calls are the
        # per-pixel polish, and its objective reports chart failures
        dist = mods["distance"]
        wrapped[id(dist.minimize)] = (dist.minimize, self._wrap_minimize(dist.minimize))
        # rebind every module-level name that refers to a wrapped function,
        # which covers `from .x import f` in every importing module
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])
        return len(self._patches)

    def _install_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if not callable(value) or isinstance(value, (type, staticmethod, classmethod)):
                continue
            public = not attr.startswith("_") or attr == "__call__"
            if attr == "__init__":
                public = not dataclasses.is_dataclass(cls)
            if public:
                self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}.{attr}", value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def assert_unwrapped(self) -> int:
        """Raise unless no schottky module or public class holds a wrapper;
        returns the number of objects inspected."""
        seen = 0
        for mod in self._modules().values():
            for attr, value in vars(mod).items():
                seen += 1
                if hasattr(value, _MARK):
                    raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")
                if isinstance(value, type) and value.__module__.startswith(PACKAGE):
                    for name, member in vars(value).items():
                        seen += 1
                        if hasattr(member, _MARK):
                            raise RuntimeError(f"{value.__name__}.{name} is still wrapped")
        return seen

    # -- wrappers --------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _counting_hook(self, name: str):
        """Post-call hook for the callables whose result feeds a counter."""
        counters = self.counters
        if name == "prime.PrimeEvaluator.__init__":
            def hook(args, kwargs, result):
                counters["group.half_set_words"] = max(
                    counters["group.half_set_words"], args[0].half_set_size)
            return hook
        return None

    def _wrap(self, name: str, fn, before=None, after=None):
        nid = self._name_id(name)
        layer = name.split(".", 1)[0]
        after = after or self._counting_hook(name)
        point_arg = POINT_ARG.get(name)
        if point_arg is not None and "." in name.split(".", 1)[1]:
            point_arg += 1  # methods: skip self
        leaf = name in PRODUCT_LEAVES
        table = name == "prime.PrimeEvaluator.theta_table"
        counters = self.counters
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            idx = len(spans)
            spans.append(None)
            parent, parent_layer = stack[-1] if stack else (-1, None)
            stack.append((idx, layer))
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, self.task)
            if point_arg is not None and len(args) > point_arg:
                n = int(np.size(args[point_arg]))
                counters[f"points:{name}"] += n
                if parent_layer != layer:
                    counters[f"entry_points:{layer}"] += n
                if leaf or table:
                    words = args[0].half_set_size
                    if leaf:
                        counters["prime.point_words"] += n * words
                    else:
                        counters["prime.table_bytes"] = max(
                            counters["prime.table_bytes"], 16.0 * n * words)
            if after is not None:
                after(args, kwargs, result)
            return result

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _wrap_minimize(self, fn):
        counters = self.counters

        def before(args, kwargs):
            objective = args[0]

            def counted(x, *a):
                val = objective(x, *a)
                counters["distance.objective_evals"] += 1
                if val != 0.5:  # 0.5 is the "repel" value of a failed chart solve
                    counters["distance.chart_valid"] += 1
                return val

            counters["distance.nm.starts"] += 1
            return (counted,) + tuple(args[1:]), kwargs

        def after(args, kwargs, result):
            counters["distance.nm.nfev"] += int(result.nfev)

        return self._wrap("distance.minimize", fn, before, after)

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, entries (spans whose parent is in another
        layer or absent), inclusive seconds and self seconds."""
        spans = self.spans
        child = np.zeros(len(spans))
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        layer_of = [n.split(".", 1)[0] for n in self.names]
        out: dict[str, dict[str, float]] = {}
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            rec = out.setdefault(self.names[nid],
                                 {"calls": 0, "entries": 0, "incl_s": 0.0, "self_s": 0.0})
            rec["calls"] += 1
            if parent < 0 or layer_of[spans[parent][0]] != layer_of[nid]:
                rec["entries"] += 1
            rec["incl_s"] += (t1 - t0) * 1e-9
            rec["self_s"] += (t1 - t0 - child[i]) * 1e-9
        return out

    def write(self, path, meta: dict) -> None:
        with open(path, "w") as fh:
            json.dump({"meta": meta, "names": self.names,
                       "fields": ["name_id", "start_ns", "end_ns", "parent", "task"],
                       "spans": self.spans}, fh)

