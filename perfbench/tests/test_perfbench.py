"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

from __future__ import annotations

import json
import random
import re
import sys
from itertools import islice
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
import metrics  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def first(workload, seed, count=300):
    return [r.argv for r in islice(workloads.requests(workload, seed), count)]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert first(workload, 7) == first(workload, 7)
    assert first(workload, 7) != first(workload, 8)


def test_design_sweep_mixes_in_edge_inputs_but_no_known_defects():
    requests = list(islice(workloads.requests("design-sweep", 0), 3000))
    kinds = {r.kind for r in requests}
    assert kinds == {"normal", *(case[0] for case in workloads.EDGE_CASES)}
    edge = sum(r.kind != "normal" for r in requests)
    assert 0.05 < edge / 3000 < 0.15


def test_selector_is_passed_as_one_token():
    for workload in workloads.WORKLOADS:
        for argv in first(workload, 1):
            assert sum(a.startswith("--cp=") for a in argv) == 1
            assert "--cp" not in argv


def test_ladders_come_in_stratified_blocks():
    requests = list(islice(workloads.requests("verify-ladder", 3), 40))
    for block in range(0, 40, 4):
        ladders = [r.params["horizons"] for r in requests[block:block + 4]]
        assert ladders.count(None) == 1
        omegas = [workloads.internal_omega(r.params) for r in requests[block:block + 4]]
        stretches = sorted(
            h[0] * omega / 5.0 for h, omega in zip(ladders, omegas) if h is not None
        )
        for k, stretch in enumerate(stretches):
            assert 4.0 ** (k / 3) - 1e-9 <= stretch < 4.0 ** ((k + 1) / 3) + 1e-9
        for h in filter(None, ladders):
            assert all(abs(b / a - 2.0) < 1e-12 for a, b in zip(h, h[1:]))


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert end_to_end == metrics.END_TO_END
    assert per_layer == metrics.PER_LAYER
    for name in [*end_to_end, *per_layer, *(w["name"] for w in spec["workloads"])]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize(
    "n, percentile, beyond",
    [(9, None, None), (20, 50.0, 10), (39, 50.0, 19), (40, 75.0, 10), (100, 90.0, 10),
     (199, 90.0, 19), (200, 95.0, 10), (999, 95.0, 49), (10000, 95.0, 500)],
)
def test_tail_percentile_is_highest_with_ten_samples_beyond(n, percentile, beyond):
    assert metrics.tail_percentile(n) == percentile
    if percentile is None:
        return
    values = [float(v) for v in range(1, n + 1)]
    random.Random(n).shuffle(values)
    value = metrics.nearest_rank(sorted(values), percentile)
    assert metrics.samples_beyond(n, percentile) == beyond
    assert sum(v > value for v in values) == beyond


def test_fixed_tail_percentiles_follow_the_rule_at_baseline():
    baseline = json.loads((BENCH / "history" / "BENCH_baseline.json").read_text())
    for workload, q in workloads.TAIL_PERCENTILE.items():
        attempted = baseline["workloads"][workload]["attempted"]
        assert metrics.tail_percentile(int(min(attempted) / 2)) == q, workload


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 4.5, 10.0])
    t = tracer.Tracer(clock=lambda: next(ticks))

    def outer():
        t.call("core.propagator", lambda: None)  # 1.0 .. 3.0
        t.call("kernels.expm", lambda: None)  # 4.0 .. 4.5

    t.call("cli.main", outer)  # 0.0 .. 10.0
    main = t.stats["cli.main"]
    assert (main.seconds, main.self_seconds) == (10.0, 7.5)
    assert t.stats["core.propagator"].self_seconds == 2.0
    values = tracer.layer_values(t, requests=2)
    assert values["cli.main.self_ms"] == 3750.0
    assert values["layer.core.self_ms"] == 1000.0
    assert values["layer.kernels.self_ms"] == 250.0
    total = sum(values[f"layer.{layer}.self_ms"] for layer in metrics.LAYERS)
    assert total == 1e3 * main.seconds / 2


def snapshot():
    return {
        (module.__name__, key): value
        for module in tracer.qobserver_modules()
        for key, value in vars(module).items()
        if callable(value)
    }


def test_traced_run_unwraps_every_qobserver_function(tmp_path):
    cli = run.import_qobserver()
    before = snapshot()
    t = tracer.Tracer()
    with tracer.installed(t):
        assert cli.design_ndpa is not before[("qobserver.cli", "design_ndpa")]
        code = t.call(tracer.ROOT_SPAN, cli.main,
                      ["verify", "--horizons", "1,2", "--out", str(tmp_path)])
    assert code == 0
    assert snapshot() == before
    assert not t.missing
    for span in ("ndpa.synthesize_observer", "observer.augment", "kernels.row_scan",
                 "dynamics.time_average_error", "cli.emit_json"):
        assert t.stats[span].calls > 0, span
    scan = t.stats[tracer.TAVG].counters
    assert scan["results"] == 2 and scan["scan_attempts"] >= 2


@pytest.fixture(scope="module")
def gate():
    return run.gate_module.Gate(run.gate_module.load_oracles(ROOT))


def request(workload, kind="normal"):
    return next(r for r in workloads.requests(workload, 0) if r.kind == kind)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_gate_accepts_outputs_of_the_seed_code(gate, workload, tmp_path):
    cli = run.import_qobserver()
    record = run.execute(cli.main, request(workload), gate, tmp_path)
    assert record["ok"] and record["exit"] == 0, record.get("reason")


def test_gate_rejects_a_tampered_design(gate, tmp_path):
    cli = run.import_qobserver()
    req = request("design-sweep")
    assert run.execute(cli.main, req, gate, tmp_path)["ok"]
    path = tmp_path / "design.json"
    doc = json.loads(path.read_text())
    doc["nondimensional"]["beta"] = [1.001 * b for b in doc["nondimensional"]["beta"]]
    path.write_text(json.dumps(doc))
    verdict = gate.check(req, 0, "", "", None, tmp_path)
    assert not verdict.ok


@pytest.mark.parametrize("case", workloads.KNOWN_DEFECT_CASES, ids=lambda c: c[0])
def test_gate_fails_the_known_defects(gate, case, tmp_path):
    cli = run.import_qobserver()
    kind, argv, params = workloads.edge_request(random.Random(0), case)
    req = workloads.Request(0, kind, argv, params)
    record = run.execute(cli.main, req, gate, tmp_path)
    if record["ok"]:
        pytest.skip("defect fixed in this version")
    assert "Traceback" in record["traceback"]


def test_calibration_takes_the_mean_reference_around_a_time():
    c = calibrate.Calibration()
    c.times = [0.0, 0.1, 0.2, 0.3, 1.5, 1.6]
    c.samples = [1.0, 1.0, 1.0, 2.0, 4.0, 8.0]
    assert calibrate.SPAN_S == 0.5
    assert c.reference_at(0.05) == 1.25  # the four within 0.5 s
    assert c.reference_at(0.3) == 1.8  # and 1.5, the first measurement after 0.3
    assert c.reference_at(1.0) == 3.0  # none within: the neighbours 0.3 and 1.5
    assert c.reference_at(1.55) == 6.0
    assert c.factor(1.0) == calibrate.REFERENCE_MS / 3.0


def test_every_request_of_a_phase_is_calibrated(gate, tmp_path):
    cli = run.import_qobserver()
    records, calibration, setups = run.run_phase(
        cli.main, "design-sweep", 0, 0.6, gate, tmp_path, starts=2
    )
    assert records and all(r["ok"] for r in records)
    assert len(setups) == 2
    assert all(wall > imported > 0 and reference > 0 for wall, imported, reference in setups)
    references = calibration.samples
    assert len(references) >= 2
    bounds = calibrate.REFERENCE_MS / max(references), calibrate.REFERENCE_MS / min(references)
    for r in records:
        assert calibration.times[0] < r["t"] < calibration.times[-1]
        assert bounds[0] <= r["cal_ms"] / r["ms"] <= bounds[1]
