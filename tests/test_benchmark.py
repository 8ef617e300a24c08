"""The benchmark runs end to end: one round, untimed and then under the
runtime tracer, which wraps every layer's public callables and
``distance.minimize`` by name and removes the wrappers again.  raster-g2
exercises the distance layer, verify-triply the proper maps' boundary
route and the full ``verify triply`` suite as its correctness gate, and
mapeval-g3 the log-space direct pass and a g = 3 map's expansion about
the holes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _traced_round(workload):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all wrappers removed" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0


def test_benchmark_round_under_the_tracer():
    _traced_round("raster-g2")


def test_verify_triply_round_under_the_tracer():
    _traced_round("verify-triply")


def test_mapeval_g3_round_under_the_tracer():
    _traced_round("mapeval-g3")
