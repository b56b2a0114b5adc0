"""Smoke test of the benchmark: every workload at a tiny size.

Run from the root of the repository with ``python3 -m pytest perfbench``.
It is not part of the tier-1 suite, whose test path is ``tests/``.
"""

import json
import re
import shutil
import signal
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _bench(*args, cwd=HERE.parent, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def _tiny(workload, trace):
    proc = _bench(
        "--workload", workload, "--seed", "1", "--seconds", "0.1",
        "--trace", str(trace), "--scale", "0.05",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0].startswith("perfbench ")
    return json.loads(lines[0][len("perfbench "):]), json.loads(lines[-1]), proc.stdout


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(workload):
    digests = set()
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        meta, result, text = _tiny(workload, trace)
        assert result["correct"] is True
        assert result["failed"] == 0 and result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[kind]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == want
        for name, unit in want.items():
            line = rf"^  {re.escape(name)} +\S+ {re.escape(unit)}$"
            assert re.search(line, text, re.M), f"{name} not printed with {unit}"
        # a time in the result line must never read exactly 0 on a workload
        assert all(v["value"] > 0 for v in result["metrics"].values() if v["unit"] == "s")
        assert meta["python"] and meta["commit"] and meta["nproc"] >= 1
        assert meta["exit_codes"] and meta["samples"] >= 1
        digests.add(meta["digest_sha256"])
    # the first pass of the traced run is untraced and must repeat the outputs
    assert len(digests) == 1


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(
        "--workload", "oracles", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=tmp_path, script=tmp_path / "perfbench" / "run.py",
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _runner(main, limit):
    return bench.Runner(types.SimpleNamespace(main=main), limit)


def test_timeout_counts_at_the_limit():
    previous = signal.signal(signal.SIGALRM, bench._on_alarm)
    try:
        t0 = time.perf_counter()
        code, _, seconds = _runner(lambda argv: time.sleep(5), 0.2).call([])
        assert time.perf_counter() - t0 < 2
    finally:
        signal.signal(signal.SIGALRM, previous)
    assert code == bench.TIMEOUT and seconds == 0.2


def test_escaping_exception_is_recorded_not_raised():
    def main(argv):
        print("partial")
        raise ValueError("boom")

    code, stdout, _ = _runner(main, 5).call([])
    assert code == "exception:ValueError" and stdout == "partial\n"
