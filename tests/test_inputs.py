"""One check per input: the library refuses with typed errors only, and the
command line reads each physics rule from the library's `InputError`."""

import ast
import json
import math
from pathlib import Path

import numpy as np
import pytest

from qobserver import (
    InputError, QObserverError, augment, cli, coefficient_trajectory, design_ndpa,
    verify_convergence,
)

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SRC = Path(__file__).resolve().parents[1] / "src" / "qobserver"


def test_library_raises_no_bare_value_error():
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id == "ValueError":
                    bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


# Finite floats over the whole range, and magnitudes near 1 of either sign.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 1e3),
)
# Frequencies and ratios that often design, so that verify_convergence and
# coefficient_trajectory are reached; ladders and grids in any order, and
# sorted, which often reach the closed form.
DESIGNABLE = st.floats(0.1, 10.0) | NUMBERS
LADDERS = st.lists(NUMBERS, max_size=4).flatmap(lambda t: st.sampled_from([t, sorted(t)]))


# The numerics run with numpy's floating-point warnings off, as the command
# line runs them: an overflow must end in a typed error, not a warning.
@hypothesis.settings(max_examples=400, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    c_p=st.lists(NUMBERS, min_size=2, max_size=2),
    omega_o=DESIGNABLE,
    gamma=DESIGNABLE,
    eps_ratio=DESIGNABLE,
    delta=st.none() | NUMBERS,
    horizons=st.none() | LADDERS,
    grid=LADDERS,
)
def test_finite_inputs_end_in_a_result_or_a_typed_error(
    c_p, omega_o, gamma, eps_ratio, delta, horizons, grid
):
    with np.errstate(all="ignore"):
        try:
            result = design_ndpa(c_p, omega_o, gamma, eps_ratio, delta)
            verify_convergence(result.observer, horizons)
            sys = augment(result.observer)
            coefficient_trajectory(sys, sys.c, grid)
        except QObserverError:
            pass


# (config key, value): each rule of each physics input, broken alone.
RULES = [
    ("cp", [1.0, 2.0, 3.0]), ("cp", [math.inf, 0.0]), ("cp", [0.0, 0.0]),
    ("omega_o", math.nan), ("omega_o", 0.0),
    ("gamma", math.inf), ("gamma", -1.0),
    ("eps_ratio", -math.inf), ("eps_ratio", 0.0),
    ("delta", math.nan), ("delta", 0.0), ("delta", math.pi), ("delta", 4.0),
    ("horizons", []), ("horizons", [-1.0, 4.0]), ("horizons", [5.0, math.nan]),
    ("horizons", [5.0, 3.0]), ("horizons", [5.0]),
]
# A flag shows a value that is not a finite number as its text, so the flag
# route takes the rules that show no value or a finite number.
CASES = [("file", key, value) for key, value in RULES] + [
    ("flag", key, value) for key, value in RULES
    if key == "horizons" or value == [0.0, 0.0] or isinstance(value, float) and math.isfinite(value)
]


def library_refusal(key, value) -> InputError:
    """The InputError of design_ndpa, or of verify_convergence for horizons."""
    inputs = {"c_p": [1.0, 0.0], "omega_o": 1.0, "gamma": 1.0, "eps_ratio": 0.1}
    with pytest.raises(InputError) as caught:
        if key == "horizons":
            verify_convergence(design_ndpa(**inputs).observer, horizons=value)
        else:
            design_ndpa(**{**inputs, "c_p" if key == "cp" else key: value})
    assert caught.value.name == key
    return caught.value


def flag_text(value) -> str:
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


@pytest.mark.parametrize("route, key, value", CASES, ids=[f"{r}-{k}={v}" for r, k, v in CASES])
def test_cli_refuses_with_the_library_rule(tmp_path, capsys, route, key, value):
    exc = library_refusal(key, value)
    out, config = tmp_path / "out", tmp_path / "run.json"
    if route == "file":
        config.write_text(json.dumps({key: value}))
        argv, where = ["verify", "--config", str(config)], f"config key {key!r}"
    else:
        argv, where = ["verify", f"{cli._flag(key)}={flag_text(value)}"], cli._flag(key)
    assert cli.main(argv + ["--out", str(out)]) == 2
    rule = str(exc)[len(key) + 2:]
    assert capsys.readouterr().err == f"config error: {where}: {rule}\n"
    assert not out.exists()
