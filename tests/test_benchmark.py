"""The benchmark runs end to end: one raster-g2 round, untimed and then
under the runtime tracer, which wraps every layer's public callables and
``distance.minimize`` by name and removes the wrappers again."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_round_under_the_tracer():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raster-g2",
         "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "all wrappers removed" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
