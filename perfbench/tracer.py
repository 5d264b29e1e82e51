"""Per-layer spans recorded from outside the qobserver package.

`installed()` replaces public functions of each layer with timing wrappers
under every name that refers to them in a qobserver module, because that is
where calls look them up: `cli` imports `verify_convergence`, `design_ndpa`,
`augment` and the trajectory helpers by name, `ndpa` imports
`synthesize_observer` by name, and `dynamics` and `core` reach `_kernels`
through the module attribute.  Every name is restored on exit.

Spans nest; a span's self time is its duration minus the time its child
spans cover.  Counters are added at the same boundaries.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from importlib import import_module
from pathlib import Path

from metrics import LAYERS, NDPA_STAGES

ROOT_SPAN = "cli.main"
TAVG = "dynamics.time_average_error"
SCAN = "kernels.row_scan"
CSV = "cli.trajectory_csv"


@dataclass
class SpanStats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    counters: dict = field(default_factory=dict)


class Tracer:
    """Aggregates spans by name; `clock` is injectable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span name, seconds covered by children]

    def call(self, name: str, fn, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - start
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += elapsed
            stats = self.span(name)
            stats.calls += 1
            stats.seconds += elapsed
            stats.self_seconds += elapsed - frame[1]

    def span(self, name: str) -> SpanStats:
        return self.stats.setdefault(name, SpanStats())

    def count(self, name: str, key: str, amount: float) -> None:
        counters = self.span(name).counters
        counters[key] = counters.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack)


def _count_scan(tracer: Tracer, args, rows) -> None:
    steps, n = rows.shape[0] - 1, rows.shape[1]
    tracer.count(SCAN, "steps", steps)
    # Per step: one row-vector times n x n matrix product; reads the matrix
    # and the row, writes the row (float64).
    tracer.count(SCAN, "flops", 2 * n * n * steps)
    tracer.count(SCAN, "bytes", 8 * (n * n + 2 * n) * steps)
    if tracer.inside(TAVG):
        tracer.count(TAVG, "scan_attempts", 1)
        tracer.count(TAVG, "scan_steps", steps)


def _count_tavg(tracer: Tracer, args, value) -> None:
    tracer.count(TAVG, "results", 1)


def _count_json(tracer: Tracer, args, text) -> None:
    tracer.count("cli.emit_json", "bytes", len(text.encode()))


def _count_csv(tracer: Tracer, args, _) -> None:
    tracer.count(CSV, "bytes", Path(args[0]).stat().st_size)


# (module, function, span name, counter hook run after a successful call)
TARGETS = (
    ("qobserver._kernels", "expm", "kernels.expm", None),
    ("qobserver._kernels", "row_scan", SCAN, _count_scan),
    ("qobserver.core", "propagator", "core.propagator", None),
    ("qobserver.observer", "augment", "observer.augment", None),
    *(
        ("qobserver.observer" if stage == "synthesize_observer" else "qobserver.ndpa",
         stage, f"ndpa.{stage}", None)
        for stage in NDPA_STAGES
    ),
    ("qobserver.ndpa", "design_ndpa", "ndpa.design_ndpa", None),
    ("qobserver.dynamics", "coefficient_trajectory", "dynamics.coefficient_trajectory", None),
    ("qobserver.dynamics", "running_average", "dynamics.running_average", None),
    ("qobserver.dynamics", "time_average_error", TAVG, _count_tavg),
    ("qobserver.dynamics", "dominant_frequency", "dynamics.dominant_frequency", None),
    ("qobserver.dynamics", "verify_convergence", "dynamics.verify_convergence", None),
    ("qobserver.cli", "load_config", "cli.load_config", None),
    ("qobserver.cli", "design_payload", "cli.design_payload", None),
    ("qobserver.cli", "verify_payload", "cli.verify_payload", None),
    ("qobserver.cli", "emit_json", "cli.emit_json", _count_json),
    ("qobserver.cli", "write_trajectory_csv", "cli.write_trajectory_csv", _count_csv),
)


def _wrapper(tracer: Tracer, name: str, fn, after):
    @wraps(fn)
    def traced(*args, **kwargs):
        result = tracer.call(name, fn, *args, **kwargs)
        if after is not None:
            after(tracer, args, result)
        return result

    return traced


def qobserver_modules() -> list:
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "qobserver" or name.startswith("qobserver."))
    ]


@contextmanager
def installed(tracer: Tracer):
    """Wrap every target under all its names for the duration of the block.

    A target missing from the code under test is listed in
    `tracer.missing`; its metrics then read 0.
    """
    patches = []
    try:
        for module_name, attr, span, after in TARGETS:
            try:
                original = getattr(import_module(module_name), attr)
            except (ImportError, AttributeError):
                tracer.missing.append(f"{module_name}.{attr}")
                continue
            wrapper = _wrapper(tracer, span, original, after)
            for module in qobserver_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        patches.append((module, key, value))
                        setattr(module, key, wrapper)
        yield tracer
    finally:
        for module, key, value in reversed(patches):
            setattr(module, key, value)


def layer_values(tracer: Tracer, requests: int) -> dict[str, float]:
    """Per-request span metrics (every PER_LAYER name not under setup/trace)."""

    def stats(name):
        return tracer.stats.get(name, SpanStats())

    def ms(name):
        return 1e3 * stats(name).seconds / requests

    def self_ms(name):
        return 1e3 * stats(name).self_seconds / requests

    def calls(name):
        return stats(name).calls / requests

    def counter(name, key):
        return stats(name).counters.get(key, 0) / requests

    attempts = stats(TAVG).counters.get("scan_attempts", 0)
    values = {
        f"{TAVG}.calls": calls(TAVG),
        f"{TAVG}.ms": ms(TAVG),
        f"{TAVG}.scan_steps": counter(TAVG, "scan_steps"),
        # 0 when the workload attempts no time-average scan.
        f"{TAVG}.accept_ratio": stats(TAVG).counters.get("results", 0) / attempts if attempts else 0.0,
        "dynamics.dominant_frequency.ms": ms("dynamics.dominant_frequency"),
        "dynamics.verify_convergence.self_ms": self_ms("dynamics.verify_convergence"),
        f"{SCAN}.calls": calls(SCAN),
        f"{SCAN}.steps": counter(SCAN, "steps"),
        f"{SCAN}.ms": ms(SCAN),
        f"{SCAN}.flops_computed": counter(SCAN, "flops"),
        f"{SCAN}.bytes_computed": counter(SCAN, "bytes"),
        "kernels.expm.calls": calls("kernels.expm"),
        "kernels.expm.ms": ms("kernels.expm"),
        "core.propagator.calls": calls("core.propagator"),
        "core.propagator.ms": ms("core.propagator"),
        "dynamics.coefficient_trajectory.calls": calls("dynamics.coefficient_trajectory"),
        "dynamics.coefficient_trajectory.ms": ms("dynamics.coefficient_trajectory"),
        "dynamics.running_average.ms": ms("dynamics.running_average"),
        "cli.write_trajectory_csv.ms": ms("cli.write_trajectory_csv"),
        "cli.write_trajectory_csv.self_ms": self_ms("cli.write_trajectory_csv"),
        f"{CSV}.bytes": counter(CSV, "bytes"),
        "ndpa.design_ndpa.ms": ms("ndpa.design_ndpa"),
        "ndpa.design_ndpa.self_ms": self_ms("ndpa.design_ndpa"),
        **{f"ndpa.{stage}.ms": ms(f"ndpa.{stage}") for stage in NDPA_STAGES},
        "observer.augment.ms": ms("observer.augment"),
        "cli.load_config.ms": ms("cli.load_config"),
        "cli.design_payload.ms": ms("cli.design_payload"),
        "cli.verify_payload.ms": ms("cli.verify_payload"),
        "cli.emit_json.ms": ms("cli.emit_json"),
        "cli.emit_json.bytes": counter("cli.emit_json", "bytes"),
        "cli.main.self_ms": self_ms(ROOT_SPAN),
    }
    for layer in LAYERS:
        values[f"layer.{layer}.self_ms"] = sum(
            (self_ms(name) for name in tracer.stats if name.split(".")[0] == layer), 0.0
        )
    return values
