#!/usr/bin/env python3
"""Run one workload of the schottky benchmark and print its metrics.

    python3 perfbench/run.py --workload raster-g2 --seed 0 --seconds 34 --trace 0

Run from the root of a checkout.  The library is imported from ``src/``.
The load is one process with one BLAS/OpenMP thread, in a closed loop: the
workload's round of tasks runs back to back, round after round, for about
``--seconds``.  The outputs are checked after the timed section.

The timings with a bound are 90th percentiles (``P``) of the set-up and of
the task times.  On a host shared with other tenants the CPU runs at a steady
contended speed with bursts up to 2x faster; how much of a run falls into
such bursts moves a median by 15-20% between runs of the same code, while
the upper percentile of short tasks moves by less than half of that.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced section, then wraps the library's public callables (see
``tracer.py``), repeats one set-up and one round under the tracer, removes the
wrappers, and prints the per-layer metrics; the spans go to
``.perfbench_out/trace-<workload>-seed<seed>.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# one BLAS/OpenMP thread for every workload; must be set before numpy loads
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
# Set-up is timed in two blocks, one before the timed section and one after
# the checks; each repeats at least SETUP_REPS times and for SETUP_MIN_S.
# The host's speed drifts over seconds, and a 10 ms set-up timed in one short
# window reads up to 1.7x apart between runs.
SETUP_REPS = 3
SETUP_MIN_S = 1.0
# percentile of the task and set-up times that the bounded metrics report
P = 90

clock = time.perf_counter


# -- set-up and the timed loop ----------------------------------------------------


def time_setups(workload, seed: int) -> tuple[list[float], object]:
    """One block of set-ups; returns their times and the last state."""
    times = []
    while len(times) < SETUP_REPS or sum(times) < SETUP_MIN_S:
        state = None  # free the previous set-up first
        t0 = clock()
        state = workload.setup(seed)
        times.append(clock() - t0)
    return times, state


def run_rounds(workload, state, seconds: float, tracer=None) -> dict:
    """Closed loop over whole rounds for about ``seconds`` (one round when
    ``seconds`` is 0): a round starts only if, at the length of the last one,
    it would end less than half a round past ``seconds``."""
    tasks = workload.tasks(state)
    task_times, round_times, outputs = [], [], []
    failed = 0
    start = clock()
    while True:
        r0 = clock()
        for task in tasks:
            if tracer is not None:
                tracer.task = len(task_times)
            t0 = clock()
            try:
                out = task()
            except Exception:  # a failed task is counted, and the loop goes on
                traceback.print_exc()
                out = None
                failed += 1
            task_times.append(clock() - t0)
            outputs.append(out)
        round_times.append(clock() - r0)
        if clock() - start + 0.5 * round_times[-1] >= seconds:
            break
    return {"elapsed": clock() - start, "task_times": task_times,
            "round_times": round_times, "outputs": outputs, "failed": failed}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples above it; the maximum (100) when there are fewer than eleven."""
    s = sorted(times)
    n = len(s)
    if n < 11:
        return s[-1], 100.0
    return s[n - 11], 100.0 * (n - 10) / n


# -- metrics -------------------------------------------------------------------


def at_p(times: list[float]) -> float:
    return float(np.percentile(times, P))


def end_to_end(setup_times, loop, checks, peak_rss_mb) -> dict:
    """The metrics with a bound in ``BENCHMARK.json``."""
    return {
        "setup_s": (at_p(setup_times), "s"),
        "task_p90_s": (at_p(loop["task_times"]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "accuracy_digits_min": (min(c.digits for c in checks if c.gate), "digits"),
    }


def reported(workload, setup_times, loop, failed, attempted) -> dict:
    """Printed with the bounded metrics but not in the JSON result: each
    moves with the share of the run the host spends in fast bursts."""
    work = sum(workload.work(o) for o in loop["outputs"] if o is not None)
    tail_s, _ = tail(loop["task_times"])
    return {
        "setup_p50_s": (statistics.median(setup_times), "s"),
        "wall_s": (loop["elapsed"], "s"),
        "task_p50_s": (statistics.median(loop["task_times"]), "s"),
        "task_tail_s": (tail_s, "s"),
        "work_per_s": (work / loop["elapsed"], "1/s"),
        "failed_frac": (failed / attempted, "1"),
    }


def per_layer(tracer, traced_s: float, untraced_s: float, checks) -> dict:
    from tracer import POINT_ARG

    st = tracer.self_times()
    c = tracer.counters

    def total(key, prefix=None, names=()):
        return sum(rec[key] for name, rec in st.items()
                   if (prefix and name.startswith(prefix)) or name in names)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    h_eval = [n for n in POINT_ARG if n.startswith("harmonic.")]
    h_calls = total("entries", names=h_eval)
    solve = ("propermaps.complete_zeros", "propermaps.from_boundary_data")
    build = ("propermaps.build_proper_map", "propermaps.build_proper_map_alt",
             "propermaps.lift_blaschke")
    pm_eval = ("propermaps.ProperMap.__call__",)
    prime_self = total("self_s", "prime.")
    suite = [x for x in checks if x.source == "verify.run_suite"]
    return {
        "group.half_set_words": (c["group.half_set_words"], "count"),
        "group.setup_s": (total("self_s", "group."), "s"),
        "prime.calls": (total("entries", "prime."), "count"),
        "prime.self_s": (prime_self, "s"),
        "prime.point_words": (c["prime.point_words"], "count"),
        "prime.ns_per_point_word": (ratio(prime_self, c["prime.point_words"], 1e9), "ns"),
        "prime.table_bytes": (c["prime.table_bytes"], "B"),
        "harmonic.fit_s": (total("incl_s", names=("harmonic.solve_harmonic_measures",)), "s"),
        "harmonic.calls": (h_calls, "count"),
        "harmonic.points_per_call": (ratio(c["entry_points:harmonic"], h_calls), "count"),
        "harmonic.us_per_call": (ratio(total("self_s", names=h_eval), h_calls, 1e6), "us"),
        "harmonic.self_s": (total("self_s", "harmonic."), "s"),
        "slitmaps.calls": (total("entries", "slitmaps."), "count"),
        "slitmaps.self_s": (total("self_s", "slitmaps."), "s"),
        "propermaps.solve.calls": (total("calls", names=solve), "count"),
        "propermaps.solve.self_s": (total("self_s", names=solve), "s"),
        "propermaps.build.self_s": (total("self_s", names=build), "s"),
        "propermaps.eval.points": (c["points:propermaps.ProperMap.__call__"], "count"),
        "propermaps.eval.self_s": (total("self_s", names=pm_eval), "s"),
        "propermaps.self_s": (total("self_s", "propermaps."), "s"),
        "distance.calls": (total("entries", "distance."), "count"),
        "distance.self_s": (total("self_s", "distance."), "s"),
        "distance.nm.starts": (c["distance.nm.starts"], "count"),
        "distance.nm.nfev": (c["distance.nm.nfev"], "count"),
        "distance.chart_valid_ratio": (
            ratio(c["distance.chart_valid"], c["distance.objective_evals"]), "1"),
        "distance.chart_evals": (c["distance.objective_evals"], "count"),
        "verify.checks": (len(suite), "count"),
        "verify.failed": (sum(not x.passed for x in suite), "count"),
        "trace.section_s": (traced_s, "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
        "trace.spans": (len(tracer.spans), "count"),
    }


# -- environment ---------------------------------------------------------------


def _run(cmd: list[str]) -> str | None:
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout if out.returncode == 0 else None


def environment(seed: int) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "schottky").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = _run(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) if (ROOT / ".git").exists() else None
    lscpu = _run(["lscpu"]) or ""
    return {
        "commit": commit.strip() if commit else None,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "SCHOTTKY_MAX_WORDS": os.environ.get("SCHOTTKY_MAX_WORDS"),
        "caches": {k.strip(): v.strip() for k, _, v in
                   (line.partition(":") for line in lscpu.splitlines()) if "cache" in k},
        "machine": platform.machine(),
    }


# -- main ----------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "schottky" / "__init__.py").is_file():
        print(f"perfbench: no schottky package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from tracer import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    env = environment(args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    tracer = Tracer(callers=(workloads,))
    tracer.assert_unwrapped()  # the untraced section runs the library as shipped

    setup_times, state = time_setups(workload, args.seed)
    loop = run_rounds(workload, state, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    layers, traced = None, None
    if args.trace:
        installed = tracer.install()
        try:
            t0 = clock()
            traced_state = workload.setup(args.seed)
            traced = run_rounds(workload, traced_state, 0.0, tracer)
            traced_s = clock() - t0
        finally:
            tracer.uninstall()
        inspected = tracer.assert_unwrapped()
        untraced_s = statistics.median(setup_times) + statistics.median(loop["round_times"])
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        tracer.write(path, {"workload": workload.name, "env": env})
        print(f"trace: {installed} bindings wrapped, {len(tracer.spans)} spans written to "
              f"{path}; all wrappers removed ({inspected} objects inspected)")

    checks = workload.checks(state, loop["outputs"])
    state = None
    if traced is not None:
        layers = per_layer(tracer, traced_s, untraced_s, checks)
    setup_times += time_setups(workload, args.seed)[0]
    gated = [c for c in checks if c.gate]
    failed = loop["failed"] + sum(not c.passed for c in gated)
    attempted = len(loop["task_times"]) + len(gated)
    if traced is not None:
        failed += traced["failed"]
        attempted += len(traced["task_times"])

    for c in checks:
        verdict = ("PASS" if c.passed else "FAIL") if c.gate else "REPORTED"
        print(f"check [{verdict}] {c.name}: "
              f"measured {c.measured:.3e} vs tol {c.tolerance:.1e} ({c.digits:.2f} digits)")
    tail_s, pct = tail(loop["task_times"])
    print(f"{workload.name}: {len(setup_times)} set-ups; "
          f"{len(loop['task_times'])} tasks in {len(loop['round_times'])} rounds, "
          f"{loop['elapsed']:.2f} s; work unit: {workload.unit}; "
          f"task_tail_s is the p{pct:.1f} of {len(loop['task_times'])} samples")
    e2e = end_to_end(setup_times, loop, checks, peak_rss_mb)
    for name, (value, unit) in e2e.items():
        print(f"  {name} = {value:.6g} {unit}")
    for name, (value, unit) in reported(workload, setup_times, loop, failed, attempted).items():
        print(f"  ({name} = {value:.6g} {unit})")
    if layers is not None:
        for name, (value, unit) in layers.items():
            print(f"  {name} = {value:.6g} {unit}")

    metrics = layers if layers is not None else e2e
    print(json.dumps({
        "correct": failed == 0 and bool(gated),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
