"""The benchmark's verify and oracles pools at a tiny size: correct, and repeatable.

perfbench/test_smoke.py::test_workload_prints_every_metric_with_its_unit
makes these checks on every workload, but on these two pools it stops before
them, at its assertion that every traced time metric is above 0: Eisenstein's
criterion proves their fields, so at --scale 0.05 they never call
poly.pow_mod and poly.pow_mod.s reads 0.  This test keeps the checks after
that assertion running on them until the benchmark lets the time of a span
that never ran read 0; then it can go.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _tiny(workload, trace):
    proc = subprocess.run(
        [
            sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", "1", "--seconds", "0.1", "--trace", str(trace), "--scale", "0.05",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[0].removeprefix("perfbench ")), json.loads(lines[-1])


@pytest.mark.parametrize("workload", ["verify", "oracles"])
def test_tiny_pool_is_correct_and_repeats_its_outputs(workload):
    digests = set()
    for trace in (0, 1):
        meta, result = _tiny(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        assert meta["python"] and meta["commit"] and meta["nproc"] >= 1
        assert meta["exit_codes"] and meta["samples"] >= 1
        digests.add(meta["digest_sha256"])
    # the first pass of the traced run is untraced and must repeat the outputs
    assert len(digests) == 1
