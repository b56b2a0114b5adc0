"""Seeded, in-process benchmark of sosfield's certificate production and checking.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload numfield --seed 1 --seconds 20 --trace 0

One client sends requests in a closed loop: each request is an argv passed
to ``sosfield.cli.main`` in this process and starts only after the previous
one returned.  There is one process and no threads.  The workload's seeded
pool of requests runs in whole passes until ``--seconds`` have elapsed.

Set-up (import, input generation, warm-up, and for ``verify`` producing the
certificates to check) is repeated ``SETUP_REPEATS`` times with a fresh
import each time; ``setup_s`` is the median.

After the loop the outputs of the first pass are checked: exit codes, every
written certificate re-checked by ``verify``, the workload's plain-integer
oracles, and later passes byte-identical to the first.  A request fails on a
wrong exit code, an exception that is not a ``SosfieldError``, a time-out,
a certificate the verifier rejects, a wrong verdict or a failed oracle.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs one
untraced pass and then traced passes (see ``tracing.py``) and prints the
per-layer metrics, per pass of the pool; the spans of the first traced pass
go to ``.perfbench/trace-<workload>.jsonl``.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it are a report for people.
"""

import argparse
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import SpanError, Tracer  # noqa: E402
from workloads import WORKLOADS, SetupError  # noqa: E402

SETUP_REPEATS = 3
# Per-request time limit: 3.7x the slowest request in any pool (F_101,
# 2.7 s) and well below the 60 s wall budget of the split search, so that
# no result depends on that budget and a hung request cannot stall a run.
REQUEST_LIMIT_S = 10.0
# No request starts after this many seconds of the process, so a run ends
# within 180 s even if the program becomes much slower.
START_CUTOFF_S = 140.0
# The module self times must cover this share of the request time the loop
# measures; the rest is the loop's own work around each cli.main call.
MIN_COVERAGE = 0.95
WORK_DIR = Path(".perfbench")
TIMEOUT = "timeout"


class RequestTimeout(BaseException):
    """Raised by SIGALRM; a BaseException so the program cannot catch it."""


def _on_alarm(signum, frame):
    raise RequestTimeout()


class Runner:
    """Calls ``cli.main`` with stdout and stderr captured, under the time limit."""

    def __init__(self, cli, limit, tracer=None):
        self.cli = cli  # main is looked up per call, so the tracer's wrapper is used
        self.limit = limit
        self.tracer = tracer

    def call(self, argv):
        """(exit code or 'timeout' or 'exception:<type>', stdout, seconds)."""
        out, saved = io.StringIO(), (sys.stdout, sys.stderr)
        t0 = time.perf_counter()
        try:
            signal.setitimer(signal.ITIMER_REAL, self.limit)
            try:
                sys.stdout, sys.stderr = out, io.StringIO()
                code = self.cli.main(list(argv))
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
        except RequestTimeout:
            code = TIMEOUT
            if self.tracer is not None:
                self.tracer.abandon_open_spans()
        except SystemExit as e:  # argparse rejects the argv
            code = e.code
        except Exception as e:  # escaped the CLI: not a SosfieldError
            code = f"exception:{type(e).__name__}"
        finally:
            sys.stdout, sys.stderr = saved
        dt = time.perf_counter() - t0
        return code, out.getvalue(), (self.limit if code == TIMEOUT else dt)

    def run(self, argv):
        code, stdout, _ = self.call(argv)
        return code, stdout


def _fresh_cli():
    """Import sosfield.cli from the checkout's src/, dropping earlier imports."""
    for name in [n for n in sys.modules if n == "sosfield" or n.startswith("sosfield.")]:
        del sys.modules[name]
    cli = importlib.import_module("sosfield.cli")
    expected = (ROOT / "src" / "sosfield").resolve()
    if Path(cli.__file__).resolve().parent != expected:
        raise SetupError(f"imported sosfield from {cli.__file__}, not from {expected}")
    return cli


def _setup(args, work):
    """One set-up: fresh import, pool generation, warm-up.  Returns (runner, pool)."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    runner = Runner(_fresh_cli(), REQUEST_LIMIT_S)
    pool = WORKLOADS[args.workload](random.Random(args.seed), args.scale, work.as_posix(), runner.run)
    for argv in pool.warmup:
        runner.call(argv)
    return runner, pool


def _file_digest(paths):
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


class PassLog:
    """Outcomes of the requests run so far, keyed to the pool."""

    def __init__(self, pool):
        self.pool = pool
        self.first = [None] * len(pool.requests)  # (code, stdout, cert bytes)
        self.digests = [None] * len(pool.requests)
        self.runs = []  # (pool index, pass number, code, seconds, digest)
        self.pass_walls = []

    def record(self, i, pass_no, code, stdout, seconds):
        req = self.pool.requests[i]
        cert = None
        if req.cert is not None and code != TIMEOUT and os.path.exists(req.cert):
            with open(req.cert, "rb") as fh:
                cert = fh.read()
        digest = hashlib.sha256(
            repr(code).encode() + b"\0" + stdout.encode() + b"\0" + (cert or b"")
        ).digest()
        if self.first[i] is None:
            self.first[i] = (code, stdout, cert)
            self.digests[i] = digest
        self.runs.append((i, pass_no, code, seconds, digest))


def _run_passes(runner, log, seconds, t_process, max_passes=None):
    """Whole passes until `seconds` have elapsed; returns (whole passes, wall, request seconds)."""
    requests = log.pool.requests
    passes, busy = 0, 0.0
    t0 = time.perf_counter()
    while True:
        tp = time.perf_counter()
        for i, req in enumerate(requests):
            if time.perf_counter() - t_process > START_CUTOFF_S:
                return passes, time.perf_counter() - t0, busy
            code, stdout, dt = runner.call(req.argv)
            busy += dt
            log.record(i, len(log.pass_walls), code, stdout, dt)
        log.pass_walls.append(time.perf_counter() - tp)
        passes += 1
        if max_passes is not None and passes >= max_passes:
            break
        if time.perf_counter() - t0 >= seconds:
            break
    return passes, time.perf_counter() - t0, busy


def _check_first_pass(runner, log):
    """Reason for failure (or None) of each request of the pool."""
    pool = log.pool
    reasons = [None] * len(pool.requests)
    for i, req in enumerate(pool.requests):
        if log.first[i] is None:
            reasons[i] = "never ran"
            continue
        code, stdout, cert = log.first[i]
        if code != req.expect:
            reasons[i] = f"exit {code}, expected {req.expect}"
            continue
        if req.writes:
            if cert is None:
                reasons[i] = "no certificate written"
                continue
            vcode, vout = runner.run(["verify", req.cert])
            if vcode != 0:
                reasons[i] = f"verify exited {vcode}: {vout.strip()[:80]}"
                continue
        if req.check is not None:
            try:
                reasons[i] = req.check(stdout, cert.decode("utf-8") if cert else None)
            except (ValueError, KeyError, TypeError) as e:
                reasons[i] = f"output check raised {type(e).__name__}: {e}"
    for members, check in pool.group_checks:
        if any(log.first[i] is None or reasons[i] for i in members):
            continue
        reason = check([log.first[i][1] for i in members])
        if reason:
            for i in members:
                reasons[i] = reason
    return reasons


def _judge(log, reasons):
    """Per run, None when the request succeeded, else the reason it failed."""
    verdicts = []
    for i, _, code, _, digest in log.runs:
        reason = reasons[i]
        if reason is None and digest != log.digests[i]:
            reason = "output differs from the first pass"
        if code == TIMEOUT:
            reason = f"time-out after {REQUEST_LIMIT_S} s"
        verdicts.append(reason)
    return verdicts


def _run_digest(log):
    """SHA-256 over every stdout and certificate of the first pass, in pool order."""
    h = hashlib.sha256()
    for entry in log.first:
        if entry is None:
            h.update(b"missing\0")
            continue
        code, stdout, cert = entry
        h.update(repr(code).encode() + b"\0" + stdout.encode() + b"\0" + (cert or b"") + b"\0")
    return h.hexdigest()


def _quantile(values, q):
    """Linear-interpolation quantile of a nonempty list."""
    s = sorted(values)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def _commit():
    """The commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest():
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(p.relative_to(ROOT).as_posix().encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def _end_to_end(log, verdicts, passes, setups):
    """(all metrics for the report, metrics of the result line)."""
    n = len(log.pool.requests)
    timed = [(r, v) for r, v in zip(log.runs, verdicts) if r[1] < passes]
    latencies = [r[3] for r, _ in timed]
    rates = []
    for p in range(passes):
        ok = sum(1 for _, v in timed[p * n:(p + 1) * n] if v is None)
        rates.append(ok / log.pass_walls[p])
    certs = [e[2] for e in log.first if e is not None and e[2] is not None]
    result = {
        "ops_per_s": (statistics.median(rates) if rates else 0.0, "1/s"),
        "lat_p50_s": (_quantile(latencies, 0.5) if latencies else 0.0, "s"),
        "lat_p90_s": (_quantile(latencies, 0.9) if latencies else 0.0, "s"),
        "cert_bytes": (sum(map(len, certs)) / len(certs) if certs else 0.0, "bytes"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    failed = sum(1 for _, v in timed if v is not None)
    report = dict(result, fail_ratio=(failed / len(timed) if timed else 0.0, "ratio"))
    return report, result


def _traced(args, runner, log, t_process, meta):
    """One untraced pass, then traced passes.  Returns (passes, report, result metrics)."""
    passes, wall, _ = _run_passes(runner, log, 0, t_process, max_passes=1)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    tpasses, twall, tbusy = 0, 0.0, 0.0
    try:
        while tpasses == 0 or wall + twall < args.seconds:
            p, w, b = _run_passes(runner, log, 0, t_process, max_passes=1)
            if not p:  # START_CUTOFF_S reached
                break
            tpasses, twall, tbusy = tpasses + p, twall + w, tbusy + b
            tracer.recording = False  # spans of the first traced pass are written out
    finally:
        tracer.uninstall()
        runner.tracer = None
    covered = tracer.check_sums()
    if tbusy and covered < MIN_COVERAGE * tbusy:
        raise SpanError(f"spans cover {covered:.3f} s of {tbusy:.3f} s of traced requests")
    spans_path = WORK_DIR / f"trace-{args.workload}.jsonl"
    tracer.write_spans(spans_path, meta)
    tpasses = max(tpasses, 1)
    report, result = tracer.layer_metrics(tpasses)
    extra = {
        "trace_overhead_ratio": ((twall / tpasses) / (wall / max(passes, 1)), "ratio"),
        "trace_coverage_ratio": (covered / tbusy if tbusy else 0.0, "ratio"),
    }
    report.update(extra)
    result.update(extra)
    meta.update(
        passes_traced=tpasses,
        traced_wall_s=twall,
        traced_request_s=tbusy,
        module_self_sum_s=covered,
        spans_written=len(tracer.sids),
        spans_file=spans_path.as_posix(),
    )
    return passes, report, result


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="pool size relative to the benchmark's (the smoke test uses a tiny one)",
    )
    return ap.parse_args(argv)


def main(argv=None):
    t_process = time.perf_counter()
    args = _parse_args(argv)
    if not (ROOT / "src" / "sosfield" / "__init__.py").is_file():
        print(f"perfbench: no sosfield sources in {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    work = WORK_DIR / "work" / args.workload

    setups, produced = [], set()
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            runner, pool = _setup(args, work)
            setups.append(time.perf_counter() - t0)
            produced.add(_file_digest(work.glob("*.json")))
    except SetupError as e:
        print(f"perfbench: set-up failed: {e}", file=sys.stderr)
        return 1

    log = PassLog(pool)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "python": platform.python_version(),
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "clients": 1,
        "loop": "closed",
        "pool_requests": len(pool.requests),
        "request_limit_s": REQUEST_LIMIT_S,
    }
    try:
        if args.trace:
            passes, report, result = _traced(args, runner, log, t_process, meta)
        else:
            passes, _, _ = _run_passes(runner, log, args.seconds, t_process)
    except SpanError as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    verdicts = _judge(log, _check_first_pass(runner, log))
    if not args.trace:
        report, result = _end_to_end(log, verdicts, passes, setups)
    why, histogram, strata = {}, {}, {}
    wrong = 0
    for (i, p, code, seconds, _), verdict in zip(log.runs, verdicts):
        histogram[str(code)] = histogram.get(str(code), 0) + 1
        if verdict:
            why[verdict] = why.get(verdict, 0) + 1
            wrong += code != TIMEOUT
        if p < passes:
            strata.setdefault(log.pool.requests[i].label, []).append(seconds)
    if len(produced) != 1:
        wrong += 1
        why["set-up produced different certificates"] = 1
    failed = sum(1 for v in verdicts if v)
    meta.update(
        passes=passes,
        pass_walls_s=log.pass_walls,
        samples=sum(len(v) for v in strata.values()),
        attempted=len(log.runs),
        failed=failed,
        exit_codes=histogram,
        failures=why,
        digest_sha256=_run_digest(log),
        setup_runs_s=setups,
        strata_count_median_s={k: [len(v), statistics.median(v)] for k, v in sorted(strata.items())},
    )
    print("perfbench " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in report.items():
        print(f"  {name:32s} {value:14.6g} {unit}")
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": len(log.runs),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
