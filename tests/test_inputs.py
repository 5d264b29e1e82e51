"""One check per input: the library refuses with typed errors only, and the
command line reads each physics rule from the library's `InputError`."""

import ast
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from qobserver import (
    InputError, PlantSpec, QObserverError, augment, cli, coefficient_trajectory, design_ndpa,
    propagator, synthesize_observer, verify_convergence,
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


# Finite floats over the whole range, magnitudes near 1 of either sign, and ints
# of any size.
NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(-3.0, 3.0),
    st.floats(1e-3, 1e3),
    st.integers(),
)
# Frequencies and ratios that often design, so that verify_convergence and
# coefficient_trajectory are reached; ladders and grids in any order, and
# sorted, which often reach the closed form.
DESIGNABLE = st.floats(0.1, 10.0) | NUMBERS
LADDERS = st.lists(NUMBERS, max_size=4).flatmap(lambda t: st.sampled_from([t, sorted(t)]))


# design_ndpa runs on Python floats, so it is called with numpy's warnings on,
# which pyproject turns into errors.  The numerics past it run with the
# warnings off, as the command line runs them: an overflow must end in a
# typed error, not a warning.
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
    try:
        result = design_ndpa(c_p, omega_o, gamma, eps_ratio, delta)
    except QObserverError:
        return
    with np.errstate(all="ignore"):
        try:
            verify_convergence(result.observer(), horizons)
            sys = augment(result.observer())
            coefficient_trajectory(sys, sys.c, grid)
        except QObserverError:
            pass


BIG = 10**400
INPUTS = {"c_p": [1.0, 0.0], "omega_o": 1.0, "gamma": 1.0, "eps_ratio": 0.1}
OBSERVER = design_ndpa(**INPUTS).observer()
AUGMENTED = augment(OBSERVER)
PLANT = PlantSpec([1.0, 0.0])

# Each public input that takes a number: (name in its InputError, a call with the
# value x in that input).
NUMBER_INPUTS = {
    **{
        f"design_ndpa-{key}": (
            "cp" if key == "c_p" else key, lambda x, key=key: design_ndpa(**{**INPUTS, key: x})
        )
        for key in ("c_p", "omega_o", "gamma", "eps_ratio", "delta")
    },
    "PlantSpec": ("cp", PlantSpec),
    "synthesize_observer-omega_o": ("omega_o", lambda x: synthesize_observer(PLANT, x, [0.2, 0])),
    "synthesize_observer-beta": ("beta", lambda x: synthesize_observer(PLANT, 1.0, x)),
    "verify_convergence": ("horizons", lambda x: verify_convergence(OBSERVER, x)),
    "coefficient_trajectory-row": ("c_row", lambda x: coefficient_trajectory(AUGMENTED, x, [1.0])),
    "coefficient_trajectory-grid": (
        "horizons", lambda x: coefficient_trajectory(AUGMENTED, AUGMENTED.c, x)
    ),
    "propagator": ("t", lambda x: propagator(AUGMENTED, x)),
}
# The same inputs with x as one entry of an array: (the input of NUMBER_INPUTS, the
# array holding x).
NUMBER_ENTRIES = {
    "design_ndpa-c_p-entry": ("design_ndpa-c_p", lambda x: [x, 0.0]),
    "synthesize_observer-beta-entry": ("synthesize_observer-beta", lambda x: [x, 0.0]),
    "verify_convergence-entry": ("verify_convergence", lambda x: [5.0, x]),
    "coefficient_trajectory-row-entry": ("coefficient_trajectory-row", lambda x: [0.0, 0.0, x, 0.0]),
    "coefficient_trajectory-grid-entry": ("coefficient_trajectory-grid", lambda x: [1.0, x]),
}
CALLS = {
    **{k: call for k, (_, call) in NUMBER_INPUTS.items()},
    **{k: lambda x, key=key, wrap=wrap: NUMBER_INPUTS[key][1](wrap(x))
       for k, (key, wrap) in NUMBER_ENTRIES.items()},
}


def refusal(call, value) -> QObserverError:
    with np.errstate(all="ignore"), pytest.raises(QObserverError) as caught:
        call(value)
    return caught.value


@pytest.mark.parametrize("sign", [1, -1], ids=["positive", "negative"])
@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS)
def test_an_int_past_float_range_is_refused_as_infinite(call, sign):
    """Refused as +-inf is, word for word: an InputError naming `inf` where the input is
    checked for finiteness, else the typed error that the infinite value raises."""
    big, inf = refusal(call, sign * BIG), refusal(call, sign * math.inf)
    assert (type(big), str(big)) == (type(inf), str(inf))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=repr)
@pytest.mark.parametrize("key, name", [
    pytest.param(key, name, id=key) for key, name in (
        ("synthesize_observer-omega_o", "omega_o"), ("synthesize_observer-beta-entry", "beta"),
        ("coefficient_trajectory-row-entry", "c_row"),
    )
])
def test_a_nonfinite_value_is_refused_before_any_arithmetic(key, name, value):
    """With numpy's warnings on: a warning would mean the value reached the numerics."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InputError) as caught:
            CALLS[key](value)
    assert caught.value.name == name
    assert caught.value.rule.endswith("must be finite")


# Each input given a boolean as itself, as an entry of a list, or as a boolean array of
# the input's shape.
BOOLEAN_FORMS = {
    **{k: (k, lambda x: x) for k in NUMBER_INPUTS},
    **NUMBER_ENTRIES,
    **{f"{key}-array": (key, lambda x, wrap=wrap: np.full(len(wrap(x)), bool(x)))
       for key, wrap in NUMBER_ENTRIES.values()},
}


@pytest.mark.parametrize("value", [True, False, np.True_], ids=repr)
@pytest.mark.parametrize("key, form", BOOLEAN_FORMS.values(), ids=BOOLEAN_FORMS)
def test_a_boolean_is_not_a_number(key, form, value):
    name, call = NUMBER_INPUTS[key]
    given = form(value)
    with pytest.raises(InputError) as caught:
        call(given)
    assert (caught.value.name, caught.value.rule) == (name, "expected a number")
    if given is value:
        assert str(caught.value) == f"{name}: expected a number, got {value!r}"


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
# Values that do not convert as given: a boolean is not a number, and an int past
# float range reads as +-inf.  A list's own shape is read by a rule of the command
# line alone (expected two numbers, expected a list of numbers), so for `cp` and
# `horizons` the int is an entry.
SCALAR_KEYS = ("omega_o", "gamma", "eps_ratio", "delta")
CONVERSIONS = [(key, value) for key in SCALAR_KEYS for value in (True, BIG, -BIG)] + [
    ("cp", [BIG, 0.0]), ("horizons", [5.0, BIG]),
]
# A flag shows a value that is not a finite number as its text, so the flag
# route takes the rules that show no value or a finite number, and text that is
# not a number.
CASES = [("file", key, value) for key, value in RULES + CONVERSIONS] + [
    ("flag", key, value) for key, value in RULES
    if key == "horizons" or value == [0.0, 0.0] or isinstance(value, float) and math.isfinite(value)
] + [("flag", key, "abc") for key in SCALAR_KEYS]


def library_refusal(key, value) -> InputError:
    """The InputError of design_ndpa, or of verify_convergence for horizons."""
    with pytest.raises(InputError) as caught:
        if key == "horizons":
            verify_convergence(OBSERVER, horizons=value)
        else:
            design_ndpa(**{**INPUTS, "c_p" if key == "cp" else key: value})
    assert caught.value.name == key
    return caught.value


def flag_text(value) -> str:
    if isinstance(value, str):
        return value
    return ",".join(map(repr, value)) if isinstance(value, list) else repr(value)


def case_id(route, key, value) -> str:
    return f"{route}-{key}={value}".replace(str(BIG), "10**400")


@pytest.mark.parametrize("route, key, value", CASES, ids=[case_id(*case) for case in CASES])
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
