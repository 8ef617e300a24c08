#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/collect.py --seeds 0-9 --out perfbench/baseline.json

Runs ``run.py`` once per (workload, seed), one run at a time, then one traced
run per workload (first seed), from the root of the checkout.  For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the quartile spread as a
share of the median, next to the bound from ``BENCHMARK.json``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    env = next((json.loads(line[4:]) for line in lines if line.startswith("env ")), {})
    return json.loads(lines[-1]), env


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-9")
    ap.add_argument("--out")
    args = ap.parse_args(argv)
    seconds = spec["run_seconds"]

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = parse_seeds(args.seeds)
    report = {"seconds": seconds, "seeds": seeds, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs, env = [], {}
        for seed in seeds:
            result, env = run(workload, seed, seconds, 0)
            runs.append(result)
            values = ", ".join(f"{k}={v['value']:.5g} {v['unit']}"
                               for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed_frac={result['failed'] / result['attempted']:.3g} "
                  f"(of {result['attempted']}); {values}", flush=True)
        entry = {"env": env, "all_correct": all(r["correct"] for r in runs), "end_to_end": {}}
        ok = ok and entry["all_correct"]
        for name in bounds:
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["bound"] = bounds[name]
            entry["end_to_end"][name] = s
            print(f"  {name}: median {s['median']:.6g} {s['unit']}, "
                  f"spread {s['spread']:.4f} (bound {bounds[name]})", flush=True)
        traced, _ = run(workload, seeds[0], seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        entry["per_layer_seed"] = seeds[0]
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
