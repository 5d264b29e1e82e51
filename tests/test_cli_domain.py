"""Property tests of the command line: its input domain and its emitters.

Every argv built from the config domain ends in a documented exit code with
no traceback and no warning, within a wall-clock bound, and every JSON file
it leaves parses to finite numbers.  The table formatter writes every cell
as `fmt_float` does, and the JSON emitter writes what `json.dumps` lays out.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

from deadline import deadline
from oracles import emit_json_by_stdlib
from qobserver import cli, csvformat

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

SPECIALS = ("0", "inf", "-inf", "nan")


def _number(kind, sign, mantissa, exponent):
    """Kind 0: a special value; 1-4: magnitude 1e-320..1e308; 5-9: 1e-3..1e4."""
    if kind == 0:
        return SPECIALS[exponent % len(SPECIALS)]
    if kind >= 5:
        exponent = exponent % 7 - 3
    return f"{sign}{mantissa:.4g}e{exponent}"


# Log-uniform magnitudes from 1e-320 to 1e308, or in the everyday range,
# negative one time in eight, and the non-finite spellings float() accepts.
NUMBERS = st.builds(
    _number,
    st.integers(0, 9),
    st.sampled_from(["", "", "", "", "", "", "", "-"]),
    st.floats(1.0, 9.999),
    st.integers(-320, 308),
)


def _finite(text):
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite number {text} in JSON")
    return value


@st.composite
def argvs(draw):
    argv = [draw(st.sampled_from(["design", "verify", "simulate"]))]
    argv.append(f"--cp={draw(NUMBERS)},{draw(NUMBERS)}")
    for key in ("omega_o", "gamma", "eps_ratio"):
        argv.append(f"--{key.replace('_', '-')}={draw(NUMBERS)}")
    if draw(st.booleans()):
        argv.append("--units=rad/s")
    if draw(st.booleans()):
        argv.append(f"--delta={draw(st.one_of(NUMBERS, st.floats(0.01, 3.13).map(repr)))}")
    if draw(st.booleans()):
        ladder = draw(st.lists(NUMBERS, min_size=1, max_size=3))
        argv.append("--horizons=" + ",".join(ladder))
    return argv


# Values a config file may hold: numbers as JSON or as text, NaN and the
# infinities, integers past float range, booleans, null, strings the fields
# accept or not, and lists of them, nested.
CONFIG_VALUES = st.recursive(
    st.one_of(
        NUMBERS,
        NUMBERS.map(float),
        st.integers(-(10**400), 10**400),
        st.booleans(),
        st.none(),
        st.sampled_from(cli.UNIT_CHOICES + cli.FORMAT_CHOICES + ("1,0", "5,10,20")),
        st.text(max_size=4),
    ),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)


@st.composite
def config_argvs(draw):
    """The config-file route: the item after --config is the file's text."""
    config = draw(st.dictionaries(st.sampled_from(list(cli.FIELDS)), CONFIG_VALUES))
    return [draw(st.sampled_from(["design", "verify", "simulate"])), "--config", json.dumps(config)]


# No shrinking: every example runs the whole pipeline, and a failing argv
# reads well as drawn.
@hypothesis.settings(
    max_examples=120, deadline=None, derandomize=True, database=None,
    phases=[hypothesis.Phase.explicit, hypothesis.Phase.generate],
    suppress_health_check=[hypothesis.HealthCheck.too_slow],
)
@hypothesis.given(st.one_of(argvs(), config_argvs()))
# Inputs that once hung, raised a traceback, wrote a wrong table or named a
# value the user never gave.
@hypothesis.example(["verify", "--horizons", "1e300,1e308"])
@hypothesis.example(["verify", "--omega-o", "1e-160", "--gamma", "1e160"])
@hypothesis.example(["simulate", "--omega-o", "1e-150", "--gamma", "1e160"])
@hypothesis.example(["simulate", "--horizons", "1e15"])
@hypothesis.example(["verify", "--units", "rad/s", "--omega-o", "1e-10", "--omega-ref", "1e300"])
# Squeezing ratios that were refused at alpha or extract_beta, at either end,
# and the edge of the trusted range.
@hypothesis.example(["design", "--eps-ratio", "1e-12"])
@hypothesis.example(["verify", "--eps-ratio", "1e-10"])
@hypothesis.example(["design", "--eps-ratio", "1e9"])
@hypothesis.example(["design", "--eps-ratio", "1e-17"])
@hypothesis.example(["design", "--eps-ratio", "0.6"])
# Config values that designed as 1.0 and 0.0, or raised OverflowError.
@hypothesis.example(["verify", "--config", '{"omega_o": true, "cp": [true, false]}'])
@hypothesis.example(["design", "--config", '{"gamma": 1' + "0" * 400 + "}"])
def test_every_input_ends_in_a_documented_outcome(argv):
    with tempfile.TemporaryDirectory() as out, deadline(30):
        if "--config" in argv:  # not *.json, which the check below reads as output
            config = Path(out) / "run.config"
            config.write_text(argv[-1])
            argv = [*argv[:-1], str(config)]
        stderr = io.StringIO()
        # Python shows a warning once per code location unless told otherwise
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--out", out])
        assert code in (0, 1, 2, 3)
        assert "Traceback" not in stderr.getvalue()
        assert [str(w.message) for w in caught] == []
        for path in Path(out).glob("*.json"):
            json.loads(path.read_text(), parse_float=_finite, parse_constant=_finite)


# Zero, subnormals, both edges of the fixed range [1e-4, 1e6) and values that
# round up across them, 1e-296 and the float below it (where 10**(11 -
# exponent) leaves the float range), near-ties, three-digit exponents and
# the largest float, each with either sign.  The 12th digit of
# -0.9596118698535, a workload's --cp, is 8.8e-7 of a unit from a tie;
# 100000.0078125 and 123456789013.5 are ties, rounded to even down and up.
# Both sides of the kernel's two-digit exponents: 1e-99
# and the float below it, -1.5e-100, 1e100 and 9.999999999995e99, which
# rounds up to it.
EDGE_CELLS = (
    0.0, 5e-324, 4.9e-320, 1e-310, 2.2250738585072014e-308, 1e-300, 3.5e-150,
    np.nextafter(1e-4, 0.0), 1e-4, 9.99999999999996e-05, 9.999999999995e-05,
    99999.99999995, 999999.9999999, 999999.9999995, np.nextafter(1e6, 0.0), 1e6,
    1e-296, np.nextafter(1e-296, 0.0), 1e290, np.nextafter(1e290, np.inf),
    -0.9596118698535, 100000.0078125, 123456789013.5, 1.5e100, 1e300, 1.7976931348623157e308,
    1e100, 9.999999999995e99, 1e-99, np.nextafter(1e-99, 0.0), -1.5e-100,
)


def _near_power_of_ten(exponent, step):
    """10**exponent as a float, or its neighbour one ulp away."""
    x = float(f"1e{exponent}")
    return float(np.nextafter(x, step * math.inf)) if step else x


# 13 significant digits ending in 5: the 12th digit of each lies within about
# 1e-4 of a unit from a tie, inside the kernel's TIE_TOLERANCE, so `fmt_float`
# decides.
NEAR_TIES = st.builds(
    lambda m, e: float(f"{m}5e{e}"), st.integers(10**11, 10**12 - 1), st.integers(-300, 290)
)
CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EDGE_CELLS).flatmap(lambda x: st.sampled_from([x, -x])),
    st.builds(_near_power_of_ten, st.integers(-323, 308), st.sampled_from([-1, 0, 1])),
    NEAR_TIES,
)


@st.composite
def tables(draw):
    width = draw(st.integers(1, 13))
    row = st.lists(CELLS, min_size=width, max_size=width)
    return draw(st.lists(row, min_size=1, max_size=12))


@hypothesis.settings(max_examples=100, deadline=None, derandomize=True, database=None)
@hypothesis.given(tables())
def test_table_format_matches_fmt_float_cell_by_cell(rows):
    text = b"".join(csvformat.fmt_table(np.array(rows))).decode("ascii")
    assert text.endswith("\n")
    assert [line.split(",") for line in text[:-1].split("\n")] == [
        [cli.fmt_float(x) for x in row] for row in rows
    ]


FINITE = {"allow_nan": False, "allow_infinity": False}
# Quotes, backslashes, control characters and non-ASCII text, BMP or not.
TEXT = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028\U0001f600'), st.characters()))
# The table test's cells: ±0.0, subnormals and both edges of [1e-4, 1e6) among them.
JSON_SCALARS = st.one_of(
    CELLS,
    CELLS.map(np.float64),
    st.integers(),
    st.booleans(),
    st.none(),
    st.complex_numbers(**FINITE),
    st.complex_numbers(**FINITE).map(np.complex128),
    TEXT,
)


@st.composite
def grids(draw):
    """A `cli.Grid` of 0 to 2 dimensions, empty ones included, its values a list or tuple."""
    shape = draw(st.lists(st.integers(0, 3), max_size=2).map(tuple))
    values = draw(st.lists(CELLS, min_size=math.prod(shape), max_size=math.prod(shape)))
    return cli.Grid(shape, tuple(values) if draw(st.booleans()) else values)



def _unique_keys(mapping):
    """True when no two keys share their text, as 1 and "1" do."""
    return len({str(k) for k in mapping}) == len(mapping)


JSON_TREES = st.recursive(
    st.one_of(JSON_SCALARS, grids()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(st.integers(), TEXT), children, max_size=4).filter(_unique_keys),
    ),
    max_leaves=24,
)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(JSON_TREES)
@hypothesis.example({
    "empty": [{}, [], (), cli.Grid((0,), ()), cli.Grid((2, 0), []), cli.Grid((0, 3), ()), {"x": {}}],
    7: [np.float64(-0.0), np.float64(0.1), -3, True, None],
    "z": [complex(1e-4, -1e6), np.complex128(5e-324), [{"g": cli.Grid((2, 1), (1.5, -0.0))}]],
    "a\"b\\c\x01\u00e9\U0001f600": cli.Grid((), (2.5,)),
    "edges": [*EDGE_CELLS, *(-x for x in EDGE_CELLS)],
})
@hypothesis.example({"100%": "100%", "%s": ["%s", 1.5], "%%": {"%(k)s": "%%"}, "%(k)s": "%(k)s"})
@hypothesis.example(cli.Grid((), (-2.5e-7,)))
@hypothesis.example({"a": cli.Grid((), [0.25]), "b": [cli.Grid((1,), [1e300]), cli.Grid((), (0.0,))]})
@hypothesis.example([np.float64(1e-5), np.complex128(complex(-2.5, 1e300)), cli.Grid((2, 2), EDGE_CELLS[:4])])
def test_emit_json_matches_stdlib_layout(tree):
    assert cli.emit_json(tree) == emit_json_by_stdlib(tree)
