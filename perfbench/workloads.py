"""Seeded request streams for the three benchmark workloads.

A request is the argv of one `qobserver` command line plus the parameters
it encodes, which the correctness gate compares the outputs against.  The
stream depends only on the workload name and the seed, so any request can
be replayed as `qobserver <argv>`.

All workloads draw designs from one domain: the plant quadrature `--cp`
at a uniformly random angle, `omega_o` and `gamma` in [0.5, 2] (times a
random power of ten in rad/s), `eps_ratio` in (0, 0.6], both unit systems,
and a phase offset `--delta` on a quarter of the requests.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Iterator

DEFAULT_LADDER = (5.0, 10.0, 20.0, 40.0, 80.0)
# Longer ladders are the default doublings stretched by a factor in (1, 4],
# so their top horizon runs up to 320 (over omega_o).
MAX_STRETCH = 4.0

# Share of design-sweep requests that carry an edge or invalid value.
EDGE_SHARE = 0.1
# (name, parameter, flag text).  The code rejects the invalid ones with exit
# code 2 and a message, which the gate accepts.
EDGE_CASES = (
    ("eps_ratio_tiny", "eps_ratio", "1e-9"),
    ("eps_ratio_untrusted", "eps_ratio", "5"),
    ("eps_ratio_zero", "eps_ratio", "0"),
    ("cp_zero", "cp", "0,0"),
    ("omega_o_zero", "omega_o", "0"),
    ("gamma_negative", "gamma", "-1"),
    ("omega_o_nan", "omega_o", "nan"),
    ("delta_out_of_range", "delta", "3.5"),
)
# Edge values that hit defects open at the seed commit (ROADMAP item 4):
# `eps_ratio_huge` raises ZeroDivisionError and `cp_tiny` raises "non-finite
# value inf in report".  A timed stream must run without failures, so they
# are kept out of it; the benchmark's tests run them through the gate.
KNOWN_DEFECT_CASES = (
    ("eps_ratio_huge", "eps_ratio", "1e9"),
    ("cp_tiny", "cp", "1e-200,0"),
)


@dataclass(frozen=True)
class Request:
    index: int
    kind: str
    argv: tuple[str, ...]
    params: dict


def _design_params(rng: random.Random) -> dict:
    angle = rng.uniform(0.0, 2.0 * math.pi)
    units = rng.choice(("nondimensional", "rad/s"))
    scale = 1.0 if units == "nondimensional" else 10.0 ** rng.randint(3, 9)
    return {
        "cp": (math.cos(angle), math.sin(angle)),
        "omega_o": rng.uniform(0.5, 2.0) * scale,
        "gamma": rng.uniform(0.5, 2.0) * scale,
        "eps_ratio": 0.6 * (1.0 - rng.random()),
        "units": units,
        "delta": rng.uniform(0.05, math.pi - 0.05) if rng.random() < 0.25 else None,
        "horizons": None,
    }


def internal_omega(params: dict) -> float:
    """Observer detuning in the CLI's internal units (omega_ref unset)."""
    return 1.0 if params["units"] == "rad/s" else params["omega_o"]


def _with_ladder(params: dict, ladder) -> dict:
    if ladder is None:
        return params
    omega = internal_omega(params)
    return {**params, "horizons": tuple(t / omega for t in ladder)}


def _flag_text(params: dict) -> dict:
    text = {
        "cp": f"{params['cp'][0]!r},{params['cp'][1]!r}",
        "omega_o": repr(params["omega_o"]),
        "gamma": repr(params["gamma"]),
        "eps_ratio": repr(params["eps_ratio"]),
        "units": params["units"],
    }
    if params["delta"] is not None:
        text["delta"] = repr(params["delta"])
    if params["horizons"] is not None:
        text["horizons"] = ",".join(repr(t) for t in params["horizons"])
    return text


def _argv(command: str, text: dict) -> tuple[str, ...]:
    argv = [command]
    for key, value in text.items():
        flag = "--" + key.replace("_", "-")
        # `--cp=-0.66,-0.75`: a separate "-0.66,..." would parse as a flag.
        argv += [f"{flag}={value}"] if key == "cp" else [flag, value]
    return tuple(argv)


def _parse_edge(param: str, text: str):
    if param == "cp":
        return tuple(float(v) for v in text.split(","))
    return float(text)


def edge_request(rng: random.Random, case: tuple) -> tuple[str, tuple, dict]:
    """A design request from the domain with one value replaced by `case`."""
    kind, param, value = case
    params = _design_params(rng)
    text = _flag_text(params)
    params = {**params, param: _parse_edge(param, value)}
    text[param] = value
    return kind, _argv("design", text), params


def design_sweep(rng: random.Random) -> Iterator[tuple[str, tuple, dict]]:
    while True:
        if rng.random() < EDGE_SHARE:
            yield edge_request(rng, rng.choice(EDGE_CASES))
        else:
            params = _design_params(rng)
            yield "normal", _argv("design", _flag_text(params)), params


def _ladders(rng: random.Random) -> Iterator:
    """Ladders in shuffled blocks of the default and three stretched ones.

    The stretch is log-uniform with one draw in each third of its range, so
    every seed runs the same mix, and the cost of a request, which grows
    with the horizons, spreads smoothly instead of in clusters: a median
    between clusters is what swings of machine speed move most.
    """
    while True:
        stretches = [MAX_STRETCH ** ((k + rng.random()) / 3.0) for k in range(3)]
        block = [None] + [tuple(s * t for t in DEFAULT_LADDER) for s in stretches]
        rng.shuffle(block)
        yield from block


def _laddered(command: str):
    def stream(rng: random.Random) -> Iterator[tuple[str, tuple, dict]]:
        for ladder in _ladders(rng):
            params = _with_ladder(_design_params(rng), ladder)
            yield "normal", _argv(command, _flag_text(params)), params

    return stream


WORKLOADS = {
    "design-sweep": design_sweep,
    "verify-ladder": _laddered("verify"),
    "simulate-csv": _laddered("simulate"),
}

# Percentile of `request_ms.tail`, fixed per workload so that runs of
# different speed report the same percentile: the highest ladder percentile
# (metrics.tail_percentile) that keeps at least ten samples beyond it in
# every baseline run of history/BENCH_baseline.json even if requests took
# twice as long, the swing of the shared host's speed.  Calibration steadies
# request times, not the number of requests a run completes.
TAIL_PERCENTILE = {
    "design-sweep": 95.0,
    "verify-ladder": 75.0,
    "simulate-csv": 95.0,
}


def requests(workload: str, seed: int) -> Iterator[Request]:
    """Endless, deterministic request stream of `workload` for `seed`."""
    rng = random.Random(f"{workload}:{seed}")
    stream = WORKLOADS[workload](rng)
    for index, (kind, argv, params) in zip(itertools.count(), stream):
        yield Request(index, kind, argv, params)
