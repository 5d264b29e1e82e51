"""Metric names, units and the summary statistics behind them."""

from __future__ import annotations

import math
import statistics

# Measured with tracing off; `--trace 0` prints exactly these.
END_TO_END = {
    "setup_s": "s",
    "request_ms.p50": "ms",
    "request_ms.tail": "ms",
    "throughput_rps": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

NDPA_STAGES = (
    "solve_theta",
    "solve_phases",
    "coupling_block",
    "extract_beta",
    "synthesize_observer",
    "build_open_ndpa",
    "close_loop",
    "hamiltonian_from_drift",
    "quadrature_hamiltonian",
)
LAYERS = ("cli", "ndpa", "observer", "dynamics", "core", "kernels")

# From the traced run; `--trace 1` prints exactly these.  Values per request
# are means over the traced phase.
PER_LAYER = {
    "dynamics.time_average_error.calls": "count/req",
    "dynamics.time_average_error.ms": "ms/req",
    "dynamics.time_average_error.scan_steps": "count/req",
    "dynamics.time_average_error.accept_ratio": "ratio",
    "dynamics.dominant_frequency.ms": "ms/req",
    "dynamics.verify_convergence.self_ms": "ms/req",
    "kernels.row_scan.calls": "count/req",
    "kernels.row_scan.steps": "count/req",
    "kernels.row_scan.ms": "ms/req",
    "kernels.row_scan.flops_computed": "flop/req",
    "kernels.row_scan.bytes_computed": "B/req",
    "kernels.expm.calls": "count/req",
    "kernels.expm.ms": "ms/req",
    "core.propagator.calls": "count/req",
    "core.propagator.ms": "ms/req",
    "dynamics.coefficient_trajectory.calls": "count/req",
    "dynamics.coefficient_trajectory.ms": "ms/req",
    "dynamics.running_average.ms": "ms/req",
    "cli.write_trajectory_csv.ms": "ms/req",
    "cli.write_trajectory_csv.self_ms": "ms/req",
    "cli.trajectory_csv.bytes": "B/req",
    "ndpa.design_ndpa.ms": "ms/req",
    "ndpa.design_ndpa.self_ms": "ms/req",
    **{f"ndpa.{stage}.ms": "ms/req" for stage in NDPA_STAGES},
    "observer.augment.ms": "ms/req",
    "cli.load_config.ms": "ms/req",
    "cli.design_payload.ms": "ms/req",
    "cli.verify_payload.ms": "ms/req",
    "cli.emit_json.ms": "ms/req",
    "cli.emit_json.bytes": "B/req",
    "cli.main.self_ms": "ms/req",
    **{f"layer.{layer}.self_ms": "ms/req" for layer in LAYERS},
    "setup.import_ms": "ms",
    "setup.import_share": "ratio",
    "trace.request_ms.p50": "ms",
    "trace.untraced_request_ms.p50": "ms",
    "trace.untraced_wall_ms.p50": "ms",
    "trace.overhead_ms": "ms",
    "trace.self_time_coverage": "ratio",
    "machine.reference_ms": "ms",
}

# Percentiles the tail metric may report, lowest first.  It stops at p95:
# p99 of a design-sweep run rests on about a hundred samples, which stalls
# of the shared machine decide (ten-seed spread up to 0.38, against 0.13
# for p95 on the same runs).
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0)
# A tail percentile is reported only with at least this many samples above it.
TAIL_MIN_BEYOND = 10


def nearest_rank(sorted_values, q: float) -> float:
    """Nearest-rank q-th percentile of an ascending, non-empty sequence."""
    return sorted_values[_rank(len(sorted_values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples ranked above the nearest-rank q-th percentile of n samples."""
    return n - _rank(n, q)


def _rank(n: int, q: float) -> int:
    # The slack keeps e.g. 95% of 20 at rank 19 despite rounding.
    return max(1, math.ceil(q * n / 100.0 - 1e-9))


def tail_percentile(n: int) -> float | None:
    """Highest TAIL_LADDER percentile with at least TAIL_MIN_BEYOND of n
    samples beyond it, or None when n is too small for any."""
    chosen = None
    for q in TAIL_LADDER:
        if samples_beyond(n, q) >= TAIL_MIN_BEYOND:
            chosen = q
    return chosen


def median(values) -> float:
    return float(statistics.median(values))
