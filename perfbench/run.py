#!/usr/bin/env python3
"""Closed-loop benchmark of the qobserver command line.

One client sends one request at a time; each request is an in-process call
to `qobserver.cli.main(argv)` with the argv drawn from a seeded workload
stream (workloads.py), and every request passes the correctness gate
(gate.py).  Run from the root of a qobserver checkout:

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload verify-ladder --seed 3 --seconds 35 --trace 0

With `--trace 0` the run measures the end-to-end metrics with tracing off;
request times are calibrated against a reference loop measured beside
them, and set-up times against a reference interpreter start
(calibrate.py), because the speed of a shared host swings.
With `--trace 1` it runs the stream untraced for half the time and traced
for the other half, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.  Each run also writes
its machine record and every request's argv and outcome to
`.perfbench_out/results/`.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate as gate_module  # noqa: E402
import metrics  # noqa: E402
import workloads  # noqa: E402
from tracer import ROOT_SPAN, Tracer, installed, layer_values  # noqa: E402

REQUIRED = ("src/qobserver/cli.py", "tests/oracles.py")
OUT = ROOT / ".perfbench_out"
# Interpreter starts per setup_s measurement, spread over the timed phase,
# after one unmeasured start that fills the bytecode and file caches.
SETUP_SPAWNS = 9
WARMUP_REQUESTS = 3
# Stated margin within which layer self times must sum to the traced
# request time measured by the client.
COVERAGE_MARGIN = 0.02

SETUP_CODE = """
import os, sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import qobserver.cli
qobserver.cli.build_parser()
sys.stdout.write(repr(time.perf_counter() - start))
sys.stdout.flush()
os._exit(0)
"""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_qobserver():
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import qobserver.cli

    source = Path(qobserver.__file__).resolve()
    if not source.is_relative_to(ROOT / "src"):
        raise ImportError(f"imported qobserver from {source}, not from {ROOT / 'src'}")
    return qobserver.cli


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        sha, _, refname = line.partition(" ")
        if refname == name:
            return sha
    return "unknown"


def machine_record(seed: int) -> dict:
    import numpy
    from qobserver import _kernels

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "backend": _kernels.backend() if hasattr(_kernels, "backend") else "unknown",
        "commit": git_commit(ROOT),
        "seed": seed,
        "platform": platform.platform(),
    }


def start_interpreter() -> tuple[float, float, float]:
    """Wall time of a fresh interpreter importing qobserver.cli and building
    its parser, the time of that import and build, and the wall time of the
    reference start right after it (calibrate.reference_start_s), in
    seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, str(ROOT / "src")],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return wall, float(proc.stdout), calibrate.reference_start_s()


def execute(call, request, gate, out_dir: Path) -> dict:
    """Run one request through `call` and the gate; returns its record."""
    for stale in out_dir.iterdir():
        stale.unlink()
    stdout, stderr = io.StringIO(), io.StringIO()
    code = error = None
    with redirect_stdout(stdout), redirect_stderr(stderr):
        start = time.perf_counter()
        try:
            code = call([*request.argv, "--out", str(out_dir)])
        except Exception as exc:  # a request that raises is a failed request
            error = exc
        elapsed = time.perf_counter() - start
    verdict = gate.check(request, code, stdout.getvalue(), stderr.getvalue(), error, out_dir)
    # The argv is kept only for failures, so that the harness's memory does
    # not grow with the number of requests and move peak_rss_mb;
    # `with_argv` adds it back when the results are written.
    record = {"index": request.index, "ms": elapsed * 1e3, "exit": code, "ok": verdict.ok}
    if not verdict.ok:
        record["argv"] = list(request.argv)
        record["reason"] = verdict.reason
        if error is not None:
            record["traceback"] = "".join(traceback.format_exception(error))
    return record


def run_phase(call, workload: str, seed: int, seconds: float, gate, out_dir: Path,
              starts: int = 0):
    """Closed loop over the stream from its start for `seconds` of wall time.

    Each record gets `t`, the middle of the request in seconds from the
    start of the phase, and `cal_ms`, its time calibrated by the reference
    measurements around it (calibrate.py).  Between requests, `starts`
    interpreter starts are spread evenly over the phase, so that set-up time
    samples the machine's speed states as the requests do.  Returns the
    records, the Calibration with its reference times and the starts."""
    stream = workloads.requests(workload, seed)
    calibration = calibrate.Calibration()
    records, setups = [], []
    while not records or calibration.now() < seconds:
        if len(setups) < starts * calibration.now() / seconds:
            setups.append(start_interpreter())
        sent = calibration.now()
        record = execute(call, next(stream), gate, out_dir)
        record["t"] = sent + 0.5 * record["ms"] / 1e3
        records.append(record)
        if calibration.due():
            calibration.measure()
    calibration.measure()
    while len(setups) < starts:
        setups.append(start_interpreter())
    for record in records:
        record["cal_ms"] = record["ms"] * calibration.factor(record["t"])
    return records, calibration, setups


def with_argv(workload: str, seed: int, records: list) -> list:
    """Records with the kind and argv of their requests, replayed from the
    stream."""
    last = max(r["index"] for r in records)
    requests = {}
    for request in workloads.requests(workload, seed):
        if request.index > last:
            break
        requests[request.index] = request
    return [
        {"kind": requests[r["index"]].kind, "argv": list(requests[r["index"]].argv), **r}
        for r in records
    ]


def setup_times(setups: list) -> tuple[float, float, float]:
    """Medians of the calibrated start and import times and of the start's
    wall time, in seconds."""
    factors = [calibrate.REFERENCE_START_S / reference for _, _, reference in setups]
    return (
        metrics.median(wall * f for (wall, _, _), f in zip(setups, factors)),
        metrics.median(imported * f for (_, imported, _), f in zip(setups, factors)),
        metrics.median(wall for wall, _, _ in setups),
    )


def summary(times: list) -> tuple[float, float]:
    """Median and requests per second of request times in ms."""
    return metrics.median(times), len(times) / (sum(times) / 1e3)


def end_to_end(workload: str, records: list, setups: list, calibration):
    setup_s, _, setup_wall = setup_times(setups)
    references = calibration.samples
    times = [r["cal_ms"] for r in records]
    walls = [r["ms"] for r in records]
    q = workloads.TAIL_PERCENTILE[workload]
    beyond = metrics.samples_beyond(len(times), q)
    ok = sum(r["ok"] for r in records)
    p50, rps = summary(times)
    values = {
        "setup_s": setup_s,
        "request_ms.p50": p50,
        "request_ms.tail": metrics.nearest_rank(sorted(times), q),
        "throughput_rps": rps,
        "ok_ratio": ok / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    wall_p50, wall_rps = summary(walls)
    notes = {
        "setup_s": f"median of {SETUP_SPAWNS} interpreter starts over the run; wall {setup_wall:.4g} s",
        "request_ms.p50": f"n={len(times)}; wall {wall_p50:.4g} ms",
        "request_ms.tail": f"p{q:g}, {beyond} samples beyond, n={len(times)}; "
        f"wall {metrics.nearest_rank(sorted(walls), q):.4g} ms"
        + ("" if beyond >= metrics.TAIL_MIN_BEYOND else "; too few samples beyond"),
        "throughput_rps": f"inside cli.main, one client; wall {wall_rps:.4g} 1/s",
        "ok_ratio": f"fail_ratio {1 - ok / len(records):.4f}: "
        f"{len(records) - ok} of {len(records)} failed",
        "peak_rss_mb": "benchmark process, harness included",
    }
    lines = [
        f"  {name:<32s} {values[name]:14.6g} {metrics.END_TO_END[name]:<6s} ({notes[name]})"
        for name in metrics.END_TO_END
    ]
    lines.append(
        f"  request times are calibrated to a {calibrate.REFERENCE_MS:g} ms reference loop; it took "
        f"{min(references):.4g}..{max(references):.4g} ms in this run "
        f"(median {metrics.median(references):.4g}, {len(references)} measurements); "
        f"set-up times to a {calibrate.REFERENCE_START_S:g} s reference start"
    )
    return values, lines


def traced_run(cli, args, gate, out_dir: Path):
    half = args.seconds / 2.0
    untraced, calibration, setups = run_phase(
        cli.main, args.workload, args.seed, half, gate, out_dir, SETUP_SPAWNS
    )
    setup_s, import_s, _ = setup_times(setups)
    tracer = Tracer()
    with installed(tracer):
        traced, traced_calibration, _ = run_phase(
            lambda argv: tracer.call(ROOT_SPAN, cli.main, argv),
            args.workload, args.seed, half, gate, out_dir,
        )
    values = layer_values(tracer, len(traced))
    traced_p50 = metrics.median(r["cal_ms"] for r in traced)
    untraced_p50 = metrics.median(r["cal_ms"] for r in untraced)
    span_self = sum(s.self_seconds for s in tracer.stats.values())
    coverage = span_self / (sum(r["ms"] for r in traced) / 1e3)
    values.update({
        "setup.import_ms": import_s * 1e3,
        "setup.import_share": import_s / setup_s,
        "trace.request_ms.p50": traced_p50,
        "trace.untraced_request_ms.p50": untraced_p50,
        "trace.untraced_wall_ms.p50": metrics.median(r["ms"] for r in untraced),
        "trace.overhead_ms": traced_p50 - untraced_p50,
        "trace.self_time_coverage": coverage,
        "machine.reference_ms": metrics.median(
            calibration.samples + traced_calibration.samples
        ),
    })
    within = abs(1.0 - coverage) <= COVERAGE_MARGIN
    lines = [
        f"  {name:<44s} {values[name]:14.6g} {metrics.PER_LAYER[name]}"
        for name in metrics.PER_LAYER
    ]
    lines.append(
        f"  layer self times cover {coverage:.2%} of traced request time "
        f"({'within' if within else 'OUTSIDE'} the {COVERAGE_MARGIN:.0%} margin); "
        f"tracing overhead {traced_p50 - untraced_p50:+.4f} ms at p50"
    )
    if tracer.missing:
        lines.append(f"  not traced (absent in this version): {', '.join(tracer.missing)}")
    return values, lines, untraced + traced, [calibration, traced_calibration]


def run_workload(args) -> dict:
    cli = import_qobserver()
    gate = gate_module.Gate(gate_module.load_oracles(ROOT))
    machine = machine_record(args.seed)
    out_dir = OUT / f"requests-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        start_interpreter()  # fills the bytecode and file caches
        for request in workloads.requests(args.workload, args.seed):
            if request.index >= WARMUP_REQUESTS:
                break
            execute(cli.main, request, gate, out_dir)
        if args.trace:
            values, lines, records, calibrations = traced_run(cli, args, gate, out_dir)
            units = metrics.PER_LAYER
        else:
            records, calibration, setups = run_phase(
                cli.main, args.workload, args.seed, args.seconds, gate, out_dir, SETUP_SPAWNS
            )
            values, lines = end_to_end(args.workload, records, setups, calibration)
            calibrations = [calibration]
            units = metrics.END_TO_END
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    results = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps({
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine,
        "metrics": values,
        # One [seconds into the phase, ms] list per phase.
        "references": [list(zip(c.times, c.samples)) for c in calibrations],
        "requests": with_argv(args.workload, args.seed, records),
    }))

    print(
        f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
        + " ".join(f"{k}={v}" for k, v in machine.items() if k != "seed")
    )
    print("\n".join(lines))
    print(f"  {len(records)} requests, {len(failed)} failed")
    for record in failed[:5]:
        print(f"  FAILED #{record['index']}: qobserver {' '.join(record['argv'])}: {record['reason']}")
    print(f"  results: {results.relative_to(ROOT)}")
    return {
        "correct": not failed,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def run_all(args) -> int:
    """Each workload in its own process; combined result on the last line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *lines, last = proc.stdout.strip().splitlines()
        print("\n".join(lines))
        result = json.loads(last)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [path for path in REQUIRED if not (ROOT / path).is_file()]
    if missing:
        print(f"perfbench: {', '.join(missing)} not found under {ROOT}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
