import contextlib
import dataclasses
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis
import numpy as np
import pytest
from hypothesis import strategies as st

from qobserver import (
    PlantSpec, _kernels, augment, cli, csvformat, design_ndpa, dynamics, ndpa,
    synthesize_observer, verify_convergence,
)
from qobserver.dynamics import CheckResult, ConvergenceReport, default_horizons
from qobserver.errors import NonFiniteError, PipelineError
from oracles import averaged_error_row, emit_json_by_stdlib, rotation_observer_row


SRC = Path(__file__).resolve().parents[1] / "src"
PERFBENCH = SRC.parent / "perfbench"


def run_cli(args):
    return cli.main(args)


def run_module(args, cwd):
    """`python -m qobserver.cli` in a subprocess, importing from this tree's src."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-m", "qobserver.cli", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120, check=False,
    )


class TestFloatFormat:
    def test_plain_decimal_range(self):
        assert cli.fmt_float(0.5) == "0.5"
        assert cli.fmt_float(0.0001) == "0.0001"
        assert cli.fmt_float(-10.0) == "-10"
        assert cli.fmt_float(168.57881372500074) == "168.578813725"
        assert cli.fmt_float(999999.5) == "999999.5"

    def test_scientific_outside_range(self):
        assert cli.fmt_float(1e-5) == "1.00000000000e-05"
        assert cli.fmt_float(2e7) == "2.00000000000e+07"
        assert cli.fmt_float(1e6) == "1.00000000000e+06"
        assert cli.fmt_float(9.99999e-5) == "9.99999000000e-05"
        assert cli.fmt_float(0.0) == "0"
        assert cli.fmt_float(-0.0) == "0"

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            cli.fmt_float(float("nan"))
        with pytest.raises(ValueError):
            cli.fmt_float(float("inf"))

    def test_table_blocks_join_to_the_cell_by_cell_text(self):
        rng = np.random.default_rng(7)
        rows = 2 * csvformat.TABLE_BLOCK_ROWS + 3
        for width in (13, 40):
            table = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-9, 9, size=(rows, width))
            table[::5, 3] = 0.0
            blocks = list(csvformat.fmt_table(table))
            assert len(blocks) == 3
            assert all(block.endswith(b"\n") for block in blocks)
            assert b"".join(blocks) == "".join(
                ",".join(cli.fmt_float(x) for x in row) + "\n" for row in table
            ).encode("ascii")

    def test_tie_column_takes_one_percent_per_block(self, monkeypatch):
        # 100000.0078125 * 10**6 ends in .5 exactly: a tie, rounded to even
        sizes, fallback = [], csvformat._fallback_text
        monkeypatch.setattr(csvformat, "_fallback_text", lambda v: sizes.append(v.size) or fallback(v))
        table = np.full((2001, 1), -100000.0078125)
        blocks = list(csvformat.fmt_table(table))
        assert b"".join(blocks) == b"-100000.007812\n" * 2001
        assert sizes == [block.count(b"\n") for block in blocks]

    def test_three_digit_exponent_column_takes_fmt_float(self, monkeypatch):
        # the kernel's exponent glyphs have two digits; %.11e of 1e-150 has three
        sizes, fallback = [], csvformat._fallback_text
        monkeypatch.setattr(csvformat, "_fallback_text", lambda v: sizes.append(v.size) or fallback(v))
        blocks = list(csvformat.fmt_table(np.full((2001, 1), 1e-150)))
        assert b"".join(blocks) == (cli.fmt_float(1e-150) + "\n").encode("ascii") * 2001
        assert sizes == [block.count(b"\n") for block in blocks]

    def test_glyph_offsets_are_the_running_section_sizes(self):
        # the first and last glyph of each section, in the order _format_tables
        # stacks them: a section that grows or shrinks fails at the next name
        sections = [
            ("digits", b"0000", b"9999"),
            ("leading", b"\0\0\0" b"0", b"9999"),
            ("trailing", b"\0" * 4, b"9999"),
            ("point", b".000", b".999"),
            ("point_trailing", b"\0" * 4, b".999"),
            ("sign_high", b"\0" * 4, b"-999"),
            ("exponent", b"e+00", b"e-99"),
            ("comma", b",\0\0\0", b",\0\0\0"),
            ("newline", b"\n\0\0\0", b"\n\0\0\0"),
        ]
        glyphs, offsets = csvformat._format_tables().glyphs, csvformat._format_tables().offsets
        assert list(offsets) == [name for name, _, _ in sections]
        ends = [offsets[name] for name, _, _ in sections[1:]] + [glyphs.size]
        for (name, first, last), end in zip(sections, ends):
            assert glyphs[offsets[name]].tobytes() == first, name
            assert glyphs[end - 1].tobytes() == last, name

    def test_import_builds_no_format_table(self, tmp_path):
        # the tables take milliseconds to build; only a run that writes a CSV pays
        code = (
            "import qobserver.cli, qobserver.csvformat as f; "
            "print(f._format_tables.cache_info().currsize)"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout == "0\n"

    def test_design_and_reproduce_example_never_load_numpy(self, tmp_path):
        # the design runs on Python floats; only verify and simulate import numpy
        code = (
            "import sys, qobserver.cli as c\n"
            "loaded = ['numpy' in sys.modules]\n"
            "for argv in (['design', '--cp=0.6,-0.8', '--units', 'rad/s', '--omega-o', '2e8',\n"
            "              '--delta', '1', '--out', 'a'], ['reproduce-example', '--out', 'b'],\n"
            "             ['design', '--horizons', '5,10', '--out', 'd']):\n"
            "    loaded.append((c.main(argv), 'numpy' in sys.modules))\n"
            "try:\n"
            "    c.emit_json({'a': {1}})\n"
            "except TypeError as exc:\n"
            "    loaded.append((str(exc), 'numpy' in sys.modules))\n"
            "c.main(['verify', '--out', 'c'])\n"
            "print(loaded, 'numpy' in sys.modules)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.splitlines()[-1] == (
            "[False, (0, False), (0, False), (0, False), "
            "(\"cannot serialize <class 'set'>\", False)] True"
        )

    def test_well_formed_command_lines_never_import_argparse(self, tmp_path):
        # only a command line that the plain pass does not read builds the parser
        code = (
            "import sys, qobserver.cli as c\n"
            "loaded = ['argparse' in sys.modules]\n"
            "for argv in (['design', '--cp=0.6,-0.8', '--units', 'rad/s', '--omega-o', '2e8',\n"
            "              '--delta=1', '--out', 'a'], ['reproduce-example', '--out', 'b'],\n"
            "             ['design', '--gamma', '-1', '--out', 'c']):\n"
            "    loaded.append((c.main(argv), 'argparse' in sys.modules))\n"
            "print(loaded)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[False, (0, False), (0, False), (2, True)]"

    @pytest.mark.parametrize("shape", [(3,), (3, 0), (2, 2, 2)])
    def test_table_rejects_other_shapes(self, shape):
        with pytest.raises(ValueError, match="expected a 2-d table with columns"):
            csvformat.fmt_table(np.zeros(shape))

    def test_table_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), -float("inf")):
            table = np.zeros((3, 13))
            table[2, 5] = bad
            with pytest.raises(NonFiniteError, match=f"non-finite value {bad!r} in report"):
                csvformat.fmt_table(table)

    def test_emit_json_round_trips(self):
        doc = {"a": [1, 2.5, None, True], "b": {"c": "x", "d": 1e-7}}
        text = cli.emit_json(doc)
        assert json.loads(text) == {"a": [1, 2.5, None, True], "b": {"c": "x", "d": 1e-7}}

    def test_emit_json_renders_numpy_values_as_lists_and_dicts(self):
        m = np.array([[2e7, -0.0], [1.5e-9, 0.25]])
        v = np.array([1.0, -10.0, 3e-5])
        z = complex(-1.5e-300, 1e7)
        assert cli.emit_json({"m": m, "v": v, "e": np.zeros(0), "z": z}) == cli.emit_json(
            {"m": [[2e7, -0.0], [1.5e-9, 0.25]], "v": [1.0, -10.0, 3e-5], "e": [],
             "z": {"re": -1.5e-300, "im": 1e7}}
        )
        assert cli.emit_json(np.complex128(z)) == cli.emit_json({"re": z.real, "im": z.imag})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("place", ["nested list", "array entry", "imaginary part"])
    def test_emit_json_refuses_nonfinite_at_any_depth(self, bad, place):
        value = {
            "nested list": [1.0, [2.0, {"x": [bad]}]],
            "array entry": np.array([[1.0, 2.0], [3.0, bad]]),
            "imaginary part": [complex(1.0, bad), np.complex128(complex(1.0, bad))],
        }[place]
        with pytest.raises(NonFiniteError, match=f"non-finite value {bad!r} in report"):
            cli.emit_json({"a": {"b": value}})

    @pytest.mark.parametrize("bad", [{1, 2}, b"bytes", object()])
    def test_emit_json_names_an_unsupported_type(self, bad):
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize {type(bad)!r}")):
            cli.emit_json({"a": [1.0, {"b": bad}]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    @pytest.mark.parametrize("place", ["scalar", "array entry"])
    def test_emit_json_raises_the_first_fault_in_document_order(self, bad, place):
        # the order is pinned for both a lone float and an array entry,
        # which the flatten pass spells in different places
        value = bad if place == "scalar" else np.array([1.0, bad])
        with pytest.raises(NonFiniteError, match=f"non-finite value {bad!r} in report"):
            cli.emit_json({"a": [value], "b": {"c": object()}})
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize {object!r}")):
            cli.emit_json({"a": [object()], "b": {"c": value}})

    def test_emit_json_keeps_no_leaf_in_its_layouts(self):
        # one key, a leaf of a different kind each time, back to back
        for tree in ({"a": 1.0}, {"a": "x"}, {"a": [1.0]}, {"a": np.zeros(1)}, {"a": None},
                     {"a": "%s"}, {"a": 1.0}, {"a": True}, {"a": np.zeros(())}, {"a": 7}):
            assert cli.emit_json(tree) == emit_json_by_stdlib(tree)

    @pytest.mark.parametrize("shape", [(2,), (2, 2), (4, 4), (0,), ()])
    def test_emit_json_lays_out_a_grid_as_its_array(self, shape):
        array = np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape) * -1.5e-7
        grid = cli.Grid(shape, tuple(array.ravel().tolist()))
        assert cli.emit_json({"g": grid, "n": [grid]}) == cli.emit_json({"g": array, "n": [array]})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_emit_json_raises_the_first_fault_in_a_grid_in_document_order(self, bad):
        grid = cli.Grid((2, 2), (1.0, 2.0, bad, 3.0))
        with pytest.raises(NonFiniteError, match=f"non-finite value {bad!r} in report"):
            cli.emit_json({"a": [grid], "b": {"c": object()}})
        with pytest.raises(TypeError, match=re.escape(f"cannot serialize {object!r}")):
            cli.emit_json({"a": [object()], "b": {"c": grid}})

    def test_emit_json_lays_out_an_array_subclass_by_its_lists(self):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", PendingDeprecationWarning)
            m = np.matrix([[1.0, 2.5], [3.0, -4e-7]])
        assert cli.emit_json({"m": m}) == emit_json_by_stdlib({"m": m})

    def test_emit_json_layouts_past_the_cache_bound(self):
        bound = cli.LAYOUT_CACHE_SIZE
        trees = [{"%d%%" % n: np.full((n % 3, n // 3), 0.5), "tail": [None] * n} for n in range(bound + 9)]
        for tree in trees + trees[:5]:
            assert cli.emit_json(tree) == emit_json_by_stdlib(tree)
        assert cli._layout.cache_info().maxsize == bound
        assert cli._layout.cache_info().currsize == bound


class TestDesignCommand:
    def test_writes_design_json(self, tmp_path, capsys):
        code = run_cli(["design", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "design.json").read_text())
        assert data["command"] == "design"
        assert data["angles"]["psi"]["deg"] == pytest.approx(-90.0)
        assert data["angles"]["theta"]["deg"] == pytest.approx(168.58, abs=0.01)
        assert data["nondimensional"]["beta"] == pytest.approx([0.2, 0.0], abs=1e-9)

    def test_si_units_scaling(self, tmp_path):
        code = run_cli([
            "design", "--units", "rad/s", "--omega-o", "1e8", "--gamma", "1e8",
            "--eps-ratio", "0.1", "--out", str(tmp_path),
        ])
        assert code == 0
        data = json.loads((tmp_path / "design.json").read_text())
        assert data["units"]["reference_frequency"] == pytest.approx(1e8)
        assert data["dimensional"]["beta"][0] == pytest.approx(2e7, rel=1e-9)
        assert data["dimensional"]["epsilon"]["im"] == pytest.approx(-1e7, rel=1e-9)
        assert data["dimensional"]["c_o"] == pytest.approx([-10.0, 0.0], abs=1e-8)

    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["design", "--cp", "0.3,-0.8", "--omega-o", "2.0", "--gamma", "1.5",
                "--eps-ratio", "0.3"]
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert (out_a / "design.json").read_bytes() == (out_b / "design.json").read_bytes()

    def test_zero_selector_exits_2(self, tmp_path, capsys):
        code = run_cli(["design", "--cp", "0,0", "--out", str(tmp_path)])
        assert code == 2
        assert "plant output selector is zero" in capsys.readouterr().err

    def test_unknown_flag_exits_2(self, tmp_path, capsys):
        assert run_cli(["design", "--bogus", "1"]) == 2

    def test_invalid_numbers_exit_2(self, tmp_path, capsys):
        assert run_cli(["design", "--omega-o", "-3", "--out", str(tmp_path)]) == 2
        assert run_cli(["design", "--eps-ratio", "zero", "--out", str(tmp_path)]) == 2

    def test_config_file_and_override(self, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"cp": [0.0, 1.0], "eps_ratio": 0.2, "gamma": 2.0}))
        code = run_cli([
            "design", "--config", str(config), "--eps-ratio", "0.4",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        data = json.loads((tmp_path / "out" / "design.json").read_text())
        assert data["inputs"]["eps_ratio"] == pytest.approx(0.4)  # flag wins
        assert data["inputs"]["gamma"] == pytest.approx(2.0)
        assert data["inputs"]["c_p"] == [0.0, 1.0]

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"epsilon_ratio": 0.2}))
        code = run_cli(["design", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert "epsilon_ratio" in capsys.readouterr().err

    def test_untrusted_ratio_warning_in_report(self, tmp_path, capsys):
        code = run_cli(["design", "--eps-ratio", "0.7", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "design.json").read_text())
        assert data["warnings"]
        assert not data["checks"]["linearization_trusted"]
        assert capsys.readouterr().err == f"warning: {data['warnings'][0]}\n"

    def test_untrusted_ratio_warns_once(self, tmp_path, capsys):
        # one route: a `warning:` line on stderr, no Python warning as well
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(["design", "--eps-ratio", "5", "--out", str(tmp_path)])
        assert code == 0
        assert caught == []
        err_lines = capsys.readouterr().err.splitlines()
        assert len(err_lines) == 1
        assert err_lines[0].startswith("warning: squeezing ratio 5 above trusted range")

    @pytest.mark.parametrize("ratio, trusted", [(0.6, False), (math.nextafter(0.6, 0.0), True)])
    def test_warning_follows_the_trust_flag(self, tmp_path, capsys, ratio, trusted):
        # the trusted range (0, 0.6) is open: 0.6 itself warns
        code = run_cli(["design", "--eps-ratio", repr(ratio), "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "design.json").read_text())
        assert data["checks"]["linearization_trusted"] is trusted
        assert len(data["warnings"]) == (0 if trusted else 1)
        assert capsys.readouterr().err == "".join(f"warning: {w}\n" for w in data["warnings"])


class TestConfigFields:
    """One table declares every field: its flag, its config key and its parser."""

    VALID = {
        "cp": ([0.0, 1.0], (0.0, 1.0)),
        "omega_o": (2.0, 2.0),
        "gamma": (3.0, 3.0),
        "eps_ratio": (0.2, 0.2),
        "delta": (1.0, 1.0),
        "units": ("rad/s", "rad/s"),
        "omega_ref": (5.0, 5.0),
        "horizons": ([4, 8], (4.0, 8.0)),
        "out": ("somewhere", Path("somewhere")),
        "format": (["json", "csv"], ("json", "csv")),
    }

    @pytest.mark.parametrize("target", ["nowhere", "link"], ids=["dangling", "loop"])
    def test_out_link_to_nothing_is_a_config_error(self, tmp_path, capsys, target):
        # run could not create the directory over the link
        link = tmp_path / "link"
        link.symlink_to(tmp_path / target)
        assert run_cli(["design", "--out", str(link)]) == 2
        assert capsys.readouterr().err == f"config error: --out: {str(link)!r} is not a directory\n"
        assert list(tmp_path.iterdir()) == [link]

    def test_every_field_is_a_flag_and_a_config_key(self, tmp_path):
        assert list(self.VALID) == list(cli.FIELDS)
        parser = cli.build_parser()
        config = tmp_path / "run.json"
        config.write_text(json.dumps({k: v for k, (v, _) in self.VALID.items()}))
        from_file = cli.load_config(parser.parse_args(["simulate", "--config", str(config)]))
        for key, (_, parsed) in self.VALID.items():
            args = parser.parse_args(["simulate", "--" + key.replace("_", "-"), "x"])
            assert getattr(args, key) == "x"
            assert getattr(from_file, key) == parsed

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_nonfinite_selector_exits_2(self, tmp_path, capsys, where):
        if where == "flag":
            argv = ["design", "--cp=inf,0"]
        else:
            config = tmp_path / "run.json"
            config.write_text('{"cp": [Infinity, 0]}')
            argv = ["design", "--config", str(config)]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_file_value_errors_name_the_config_key(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"omega_o": -1}))
        assert run_cli(["design", "--config", str(config), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == "config error: config key 'omega_o': must be positive, got -1.0\n"

    @pytest.mark.parametrize("where", ["flag", "file"])
    def test_invalid_units_is_a_config_error(self, tmp_path, capsys, where):
        if where == "flag":
            argv = ["design", "--units", "bogus"]
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"units": "bogus"}))
            argv = ["design", "--config", str(config)]
        assert run_cli(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "units must be one of" in err

    @pytest.mark.parametrize("where", ["flag", "file"])
    @pytest.mark.parametrize(
        "key, value, omega_ref, got",
        [
            ("omega_o", 1e300, 1e-300, "inf"),
            ("omega_o", 1e-300, 1e300, "0.0"),
            ("gamma", 1e300, 1e-300, "inf"),
            ("gamma", 1e-300, 1e300, "0.0"),
            ("omega_o", 1e-10, 1e300, "1e-310"),
        ],
        ids=[
            "omega_o_overflow", "omega_o_underflow", "gamma_overflow", "gamma_underflow",
            "omega_o_subnormal",
        ],
    )
    def test_rescaled_input_out_of_range_exits_2(
        self, tmp_path, capsys, where, key, value, omega_ref, got
    ):
        # each value is valid, but design_ndpa would get value / omega_ref,
        # which overflows, underflows to 0 or is subnormal
        out = tmp_path / "out"
        if where == "flag":
            argv = ["design", "--units", "rad/s", cli._flag(key), str(value),
                    "--omega-ref", str(omega_ref)]
            names = f"{cli._flag(key)} / --omega-ref"
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps({"units": "rad/s", key: value, "omega_ref": omega_ref}))
            argv = ["design", "--config", str(config)]
            names = f"config key {key!r} / config key 'omega_ref'"
        assert run_cli(argv + ["--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"config error: {names}: {key} / omega_ref must be finite and at least "
            f"2.2250738585072014e-308, got {got}\n"
        )
        assert not out.exists()

    def test_rescaled_gamma_names_omega_o_as_reference(self, tmp_path, capsys):
        argv = ["design", "--units", "rad/s", "--omega-o", "1e-300", "--gamma", "1e300"]
        assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == (
            "config error: --gamma / --omega-o: gamma / omega_o must be finite and at least "
            "2.2250738585072014e-308, got inf\n"
        )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("cp", 5), ("horizons", 5), ("out", 5), ("format", 5),
            ("omega_o", True), ("cp", [True, False]), ("horizons", [True, 2, 3]),
            ("gamma", 10**400), ("cp", [-(10**400), 0]), ("horizons", [1, 10**400]),
            ("cp", {"1": 0, "0": 1}), ("cp", [10**400, 0, 0]),
        ],
        ids=[
            "cp", "horizons", "out", "format", "omega_o_boolean", "cp_booleans",
            "horizons_boolean", "gamma_past_float", "cp_past_float", "horizons_past_float",
            "cp_object", "cp_three_past_float",
        ],
    )
    def test_wrongly_typed_file_values_exit_2(self, tmp_path, monkeypatch, capsys, key, value):
        monkeypatch.chdir(tmp_path)  # no --out flag, which would override the key
        Path("run.json").write_text(json.dumps({key: value}))
        assert run_cli(["design", "--config", "run.json"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: config key {key!r}:")
        # one short line: an int past float range is named inf, not by its 401 digits
        assert len(err.splitlines()) == 1 and len(err) < 100
        assert list(tmp_path.iterdir()) == [tmp_path / "run.json"]

    @pytest.mark.parametrize(
        "argv, config_text, message",
        [
            (["design", "--format", "xml"], None, "--format: unknown format 'xml'"),
            (["design", "--format", ","], None, "--format: at least one format required"),
            (["design", "--format", "csv"], None, "--format: design produces JSON"),
            (["verify", "--format", "csv"], None, "--format: verify produces JSON"),
            (["design", "--cp", "1,2,3"], None, "--cp: expected two numbers, got '1,2,3'"),
            (["verify", "--horizons", ","], None, "--horizons: empty list"),
            (["design", "--config", "{path}"], None, "config file not found: {path}"),
            (["design", "--config", "{path}"], "{bad", "{path}: invalid JSON ("),
            (["design", "--config", "{path}"], "[1,2]", "{path}: top level must be a JSON object"),
            (["design", "--config", "{tmp}"], None, "{tmp}: cannot read (Is a directory)"),
            (["design", "--config", "{path}"], b'{"gamma": \xff}', "{path}: invalid JSON ('utf-8'"),
            (["design", "--config", "{path}"], '{"gamma": ' + "1" * 4301 + "}",
             "{path}: invalid JSON (an integer has more than 4300 digits)\n"),
            (["design", "--config", "{path}"], "[" * 100000, "{path}: invalid JSON (maximum recursion"),
            (["design", "--out", "{path}"], "", "--out: '{path}' is not a directory"),
            (["verify", "--out", "{path}/sub"], "", "--out: '{path}' is not a directory"),
            (["design", "--config", "{path}\0"], None, "{path}\0: cannot read (embedded null byte)\n"),
            (["design", "--out", "{tmp}/" + "x" * 300], None,
             "--out: cannot use '{tmp}/" + "x" * 300 + "' (File name too long)\n"),
            (["design", "--config", "{path}"], '{"out": "x\\u0000y"}',
             "config key 'out': cannot use 'x\\x00y' (embedded null byte)\n"),
        ],
        ids=[
            "unknown_format", "no_format", "design_without_json", "verify_without_json",
            "three_selector_entries", "no_horizons", "missing_file", "bad_json", "json_list",
            "directory", "not_utf8", "digit_limit", "deep_nesting", "out_file", "out_under_file",
            "nul_in_path", "out_name_too_long", "out_nul_in_file",
        ],
    )
    def test_config_error_names_its_source(self, tmp_path, capsys, argv, config_text, message):
        out, config = tmp_path / "out", tmp_path / "run.json"
        if config_text is not None:
            config.write_bytes(config_text if isinstance(config_text, bytes) else config_text.encode())
        argv = [arg.format(path=config, tmp=tmp_path) for arg in argv]
        # an --out flag would override the file's out key
        out_given = "--out" in argv or '"out"' in str(config_text)
        assert run_cli(argv + ([] if out_given else ["--out", str(out)])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: " + message.format(path=config, tmp=tmp_path))
        assert len(err.splitlines()) == 1
        assert not out.exists()
        assert sorted(tmp_path.iterdir()) == ([config] if config_text is not None else [])


class TestVerifyCommand:
    def test_report_contents(self, tmp_path, capsys):
        code = run_cli(["verify", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        conv = data["convergence"]
        errors = conv["errors"]
        assert conv["passed"] is True
        assert conv["horizons"] == [5.0, 10.0, 20.0, 40.0, 80.0]
        assert all(b < a for a, b in zip(errors, errors[1:]))
        assert conv["fitted_rate"] == pytest.approx(1.19, abs=0.1)
        assert conv["oscillation_frequency_estimate"] == pytest.approx(4.0, rel=1e-6)

    def test_report_keys_are_the_report_fields(self, tmp_path):
        assert run_cli(["verify", "--out", str(tmp_path)]) == 0
        conv = json.loads((tmp_path / "report.json").read_text())["convergence"]
        fields = [f.name for f in dataclasses.fields(ConvergenceReport)]
        assert list(conv) == [*fields, "rate_note"]
        check_fields = [f.name for f in dataclasses.fields(CheckResult)]
        assert [list(check) for check in conv["checks"]] == [check_fields] * 3

    def test_custom_horizons(self, tmp_path):
        code = run_cli(["verify", "--horizons", "4,8,16", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        assert data["convergence"]["horizons"] == [4.0, 8.0, 16.0]

    def test_byte_identical_reports(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = ["verify", "--horizons", "5,10,20"]
        assert run_cli(args + ["--out", str(out_a)]) == 0
        assert run_cli(args + ["--out", str(out_b)]) == 0
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()

    def test_bad_horizons_exit_2(self, tmp_path):
        assert run_cli(["verify", "--horizons", "8,4", "--out", str(tmp_path)]) == 2
        assert run_cli(["verify", "--horizons", "-1,4", "--out", str(tmp_path)]) == 2

    def test_nonfinite_horizons_exit_2(self, tmp_path, capsys):
        for ladder in ("5,inf", "5,nan"):
            assert run_cli(["verify", "--horizons", ladder, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "finite" in err
        assert "Traceback" not in err
        assert not (tmp_path / "report.json").exists()

    def test_single_horizon_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"horizons": [5]}))
        assert run_cli(["verify", "--horizons", "5", "--out", str(tmp_path)]) == 2
        assert run_cli(["verify", "--config", str(config), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "config error: --horizons: verify needs at least two horizons",
            "config error: config key 'horizons': verify needs at least two horizons",
        ]
        assert not (tmp_path / "report.json").exists()
        assert run_cli(["simulate", "--horizons", "5", "--out", str(tmp_path)]) == 0

    def test_long_horizons_match_oracle(self, tmp_path):
        code = run_cli(["verify", "--horizons", "1e5,1e6", "--out", str(tmp_path)])
        assert code == 0
        data = json.loads((tmp_path / "report.json").read_text())
        design = synthesize_observer(
            PlantSpec([1.0, 0.0]), data["design"]["omega_o"], data["design"]["beta"]
        )
        np.testing.assert_allclose(design.c_o, data["design"]["c_o"], rtol=1e-11)
        conv = data["convergence"]
        assert conv["horizons"] == [1e5, 1e6]
        for t_hor, error in zip(conv["horizons"], conv["errors"]):
            assert math.isfinite(error)
            oracle = float(np.max(np.abs(averaged_error_row(design, t_hor))))
            assert error == pytest.approx(oracle, rel=1e-11)

    def test_indefinite_observer_report_is_refused(self):
        # A library-built R_o that is not positive definite has no closed-form
        # limit, so its report carries inf, which the emitter refuses typed.
        design = ndpa.solve_design(*ndpa.check_design_inputs([1.0, 0.0], 1.0, 1.0, 0.1))
        indefinite = dataclasses.replace(design.observer(), r_o=np.diag([2.0, -2.0]))
        report = verify_convergence(indefinite)
        assert report.averaged_limit_defect == math.inf
        payload = cli.verify_payload(cli.RunConfig(command="verify"), design, report, 1.0)
        with pytest.raises(NonFiniteError, match="non-finite value inf in report"):
            cli.emit_json(payload)


class TestSimulateCommand:
    def test_csv_shape_and_finiteness(self, tmp_path):
        code = run_cli(["simulate", "--horizons", "5,10", "--out", str(tmp_path)])
        assert code == 0
        text = (tmp_path / "trajectory.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == (
            "t,zp_qp,zp_pp,zp_qo,zp_po,zo_qp,zo_pp,zo_qo,zo_po,"
            "zo_avg_qp,zo_avg_pp,zo_avg_qo,zo_avg_po"
        )
        assert len(lines) == 1 + cli.SIMULATE_POINTS
        assert "\r" not in text
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        assert data.shape == (cli.SIMULATE_POINTS, 13)
        assert np.all(np.isfinite(data))
        # plant row frozen at the selector
        np.testing.assert_allclose(data[:, 1], np.ones(cli.SIMULATE_POINTS), atol=1e-10)
        # running average of z_o approaches z_p coefficient
        assert data[-1, 9] == pytest.approx(1.0, abs=0.05)

    def test_average_columns_are_exact(self, tmp_path):
        # zo_avg = C_p,aug - (1/t) int_0^t (C_p,aug - C_o,aug exp(As)) ds
        assert run_cli(["simulate", "--out", str(tmp_path)]) == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        observer = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])
        plant_row = np.array([1.0, 0.0, 0.0, 0.0])
        for row in data[1::50]:
            expected = plant_row - averaged_error_row(observer, row[0])
            np.testing.assert_allclose(row[9:], expected, rtol=0.0, atol=1e-10)

    def test_tiny_detuning_stays_finite(self, tmp_path):
        # int_0^h exp(As) ds overflows here while the average does not
        code = run_cli(["simulate", "--omega-o", "3.67e-148", "--out", str(tmp_path)])
        assert code == 0
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        assert np.all(np.isfinite(data))

    @pytest.mark.parametrize("t_max", ["1e3", "1e6", "1e10", "1e15"])
    @pytest.mark.parametrize("cp", ["1,0", "0.3,-0.8"])
    def test_cells_exact_at_long_horizons(self, tmp_path, monkeypatch, t_max, cp):
        # the table before formatting: z_o and its average against the rotation
        # integral; z_p against the drift bound that README states
        tables, fmt_table = [], csvformat.fmt_table
        monkeypatch.setattr(csvformat, "fmt_table", lambda t: tables.append(t) or fmt_table(t))
        assert run_cli(["simulate", "--cp", cp, "--horizons", t_max, "--out", str(tmp_path)]) == 0
        (table,) = tables
        observer = design_ndpa([float(c) for c in cp.split(",")], 1.0, 1.0, 0.1).observer
        sys_aug = augment(observer)
        for t, zp, zo, zo_avg in zip(table[:, 0], table[:, 1:5], table[:, 5:9], table[:, 9:]):
            row, average = rotation_observer_row(observer, t)
            for got, want in ((zo, row), (zo_avg, average)):
                bound = 1e-12 * np.maximum(1.0, np.abs(got))
                assert np.all(np.abs(got - want) <= bound), (t, got, want)
        delta = np.linalg.norm(sys_aug.c[0] @ sys_aug.a)
        coupling = np.linalg.norm(observer.beta) * np.linalg.norm(observer.c_p)
        drift = delta * (1.0 + coupling + table[:, 0] * coupling) / observer.omega_o
        plant_row = np.concatenate([observer.c_p, np.zeros(2)])
        deviation = np.max(np.abs(table[:, 1:5] - plant_row), axis=1)
        if cp == "1,0":
            assert delta == 0.0 and np.all(deviation == 0.0)
        else:
            assert delta > 0.0 and np.all(deviation <= drift + 1e-15)

    def test_simulate_and_verify_run_no_exponential(self, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the propagator ran")

        monkeypatch.setattr(dynamics, "propagator", boom)
        rng = np.random.default_rng(5)
        for k in range(20):
            arg_c, omega = rng.uniform(-math.pi, math.pi), 10.0 ** rng.uniform(-100, 100)
            gamma, ratio = omega * 10.0 ** rng.uniform(-3, 3), rng.uniform(0.01, 0.6)
            argv = [f"--cp={math.cos(arg_c)},{math.sin(arg_c)}", f"--omega-o={omega!r}",
                    f"--gamma={gamma!r}", f"--eps-ratio={ratio!r}", f"--out={tmp_path / str(k)}"]
            assert run_cli(["verify", *argv]) == 0
            assert run_cli(["simulate", *argv]) == 0

    def test_design_json_also_written(self, tmp_path):
        assert run_cli(["simulate", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("argv", [[], ["--cp=0.6,-0.8", "--horizons", "3,700"]])
    def test_one_weight_evaluation_per_table(self, tmp_path, monkeypatch, argv):
        # both rows of the table from one closed form, its structure tested once
        calls = {"weights": 0, "_observer_blocks": 0}
        for module, name in ((_kernels, "weights"), (dynamics, "_observer_blocks")):
            def counted(*args, name=name, original=getattr(module, name)):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, counted)
        assert run_cli(["simulate", *argv, "--out", str(tmp_path)]) == 0
        assert calls == {"weights": 1, "_observer_blocks": 1}


class TestReproduceExample:
    def test_passes_with_exit_0(self, tmp_path, capsys):
        code = run_cli(["reproduce-example", "--out", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "reproduce-example PASSED" in out
        assert (tmp_path / "design.json").exists()

    def test_csv_format_checks_golden_and_writes_no_file(self, tmp_path, capsys):
        code = run_cli(["reproduce-example", "--format", "csv", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().out.endswith("reproduce-example PASSED\n")
        assert list(tmp_path.iterdir()) == []

    def test_detects_golden_mismatch(self, tmp_path, capsys, monkeypatch):
        tampered = tuple(
            ("theta_deg", 150.0, 0.05) if name == "theta_deg" else (name, golden, tol)
            for name, golden, tol in cli.GOLDEN
        )
        monkeypatch.setattr(cli, "GOLDEN", tampered)
        code = run_cli(["reproduce-example", "--out", str(tmp_path)])
        assert code == 3
        assert "MISMATCH" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flag, value", [("--cp", "1,0"), ("--omega-o", "2"), ("--config", "run.json")]
    )
    def test_design_flags_exit_2_naming_the_flag(self, tmp_path, capsys, flag, value):
        (tmp_path / "run.json").write_text('{"cp": [0, 1]}')
        out = tmp_path / "out"
        code = run_cli(["reproduce-example", flag, value, "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == (
            f"config error: {flag}: reproduce-example takes only --out and --format\n"
        )
        assert not out.exists()


class TestExitCodes:
    def test_pipeline_failure_exits_1(self, tmp_path, monkeypatch, capsys):
        def boom(*args, **kwargs):
            raise PipelineError("extract_beta", "forced failure")

        monkeypatch.setattr(cli, "solve_design", boom)
        code = run_cli(["design", "--out", str(tmp_path)])
        assert code == 1
        assert "extract_beta" in capsys.readouterr().err

    def test_cross_check_refusal_exits_1(self, tmp_path, monkeypatch, capsys):
        # no known input reaches the cross-check's refusal, so the physical
        # route is pushed off the abstract design by a relative 1e-6
        close_loop = ndpa.close_loop
        monkeypatch.setattr(
            ndpa, "close_loop",
            lambda *args: tuple(tuple(z * (1 + 1e-6) for z in row) for row in close_loop(*args)),
        )
        with pytest.raises(PipelineError) as info:
            design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1)
        assert info.value.stage == "cross_check"
        code = run_cli(["design", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pipeline failure: [cross_check] physical route disagrees")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "design.json").exists()

    def test_beamsplitter_near_full_transmission_designs(self, tmp_path, capsys):
        # theta = 2 arctan(1e-9) leaves 1 - cos(theta) = 0 in floating point;
        # the loop closure reads the ratio, so only the ratio's range is flagged
        code = run_cli(["design", "--eps-ratio", "1e9", "--out", str(tmp_path)])
        assert code == 0
        assert capsys.readouterr().err == (
            "warning: squeezing ratio 1e+09 above trusted range (0, 0.6); "
            "linearized model not trusted\n"
        )
        assert (tmp_path / "design.json").exists()

    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_underflowing_selector_exits_1(self, tmp_path, capsys, command):
        # |C_p|^2 = 1e-400 rounds to 0; beta would be infinite
        code = run_cli([command, "--cp", "1e-200,0", "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pipeline failure: [extract_beta]")
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--horizons", "1e300,1e308"],
            ["simulate", "--horizons", "1e308"],
        ],
        ids=["verify_phase_overflow", "simulate_phase_overflow"],
    )
    def test_nonfinite_result_exits_1(self, tmp_path, capsys, argv):
        # w t = 4e308 overflows
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + ["--out", str(tmp_path)])
        assert [str(w.message) for w in caught] == []
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: non-finite value") or err.startswith(
            "error: trajectory rows overflowed"
        )
        assert len(err.strip().splitlines()) == 1
        for path in tmp_path.iterdir():
            assert path.name == "design.json"
            assert "inf" not in path.read_text() and "nan" not in path.read_text()

    def test_subnormal_c_o_exits_1(self, tmp_path, capsys):
        # C_o = -2 omega_o beta / |beta|^2 = [-1e-319, -0] is subnormal, and
        # R_o^{-1} beta^T would overflow in verify's limit defect
        argv = ["verify", "--omega-o", "1e-160", "--gamma", "1e160", "--out", str(tmp_path)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv)
        assert [str(w.message) for w in caught] == []
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("pipeline failure: [synthesize_observer]")
        assert "subnormal" in err
        assert len(err.strip().splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--omega-o", "1e200"],
            ["verify", "--omega-o", "1e-300"],
            ["simulate", "--cp=6.09e-04,1.84e-10", "--omega-o", "3.67e-148",
             "--gamma", "1.96e-114", "--eps-ratio", "24.9"],
        ],
        ids=["verify_large_omega_o", "verify_small_omega_o", "simulate_tiny_scales"],
    )
    def test_extreme_scales_match_oracle(self, tmp_path, argv):
        # C_o A A, int_0^h exp(As) ds or w^2 overflowed or underflowed here;
        # the closed form works in units of s = max|Om| and needs none of them
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli(argv + ["--out", str(tmp_path)])
        assert [str(w.message) for w in caught] == []
        assert code == 0
        cfg = cli.load_config(cli.build_parser().parse_args(argv))
        observer = design_ndpa(np.asarray(cfg.cp), cfg.omega_o, cfg.gamma, cfg.eps_ratio).observer
        if argv[0] == "verify":
            conv = json.loads((tmp_path / "report.json").read_text())["convergence"]
            assert conv["passed"]
            for t_hor, error in zip(conv["horizons"], conv["errors"]):
                oracle = float(np.max(np.abs(averaged_error_row(observer, t_hor))))
                assert error == pytest.approx(oracle, rel=1e-10)
            return
        data = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",", skiprows=1)
        grid = np.linspace(0.0, max(default_horizons(observer.omega_o)), cli.SIMULATE_POINTS)
        plant_row = np.concatenate([observer.c_p, np.zeros(2)])
        for k in range(0, grid.size, 100):
            expected = plant_row - averaged_error_row(observer, grid[k]) if k else data[0, 5:9]
            scale = float(np.max(np.abs(expected)))
            np.testing.assert_allclose(data[k, 9:], expected, rtol=1e-10, atol=1e-10 * scale)

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_overflowing_default_ladder_exits_1(self, tmp_path, capsys, command):
        # {5..80} / 1e-310 overflows to inf
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([command, "--omega-o", "1e-310", "--out", str(tmp_path)])
        assert [str(w.message) for w in caught] == []
        assert code == 1
        assert capsys.readouterr().err == (
            "error: default horizon ladder {5..80}/omega_o is not finite "
            "for omega_o = 1e-310\n"
        )
        assert [path.name for path in tmp_path.iterdir()] == ["design.json"]

    def test_huge_coupling_design_exits_0(self, tmp_path, capsys):
        # det R_c would overflow in the units of R_c (~2e189); it is reported
        # for the block scaled by its max-abs entry
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = run_cli([
                "design", "--cp=27189.5,7.8e-05", "--omega-o", "2.4e-05",
                "--gamma", "1.1e196", "--eps-ratio", "1.9e-07", "--out", str(tmp_path),
            ])
        assert [str(w.message) for w in caught] == []
        assert code == 0
        assert capsys.readouterr().err == ""
        design = json.loads((tmp_path / "design.json").read_text())
        assert abs(design["checks"]["det_r_c"]) <= 1e-9

    @pytest.mark.parametrize("command", ["design", "verify"])
    def test_huge_beta_keeps_observer_selector(self, tmp_path, capsys, command):
        # |C_p|^2 = 1e-310 is subnormal; beta ~ 1e154 would overflow |beta|^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli([command, "--cp=1e-155,0", "--out", str(tmp_path)])
        assert code == 0
        design = json.loads((tmp_path / "design.json").read_text())
        c_o = design["nondimensional"]["c_o"]
        assert c_o[0] != 0.0 and abs(c_o[1]) <= 1e-15 * abs(c_o[0])
        assert c_o[0] * design["nondimensional"]["beta"][0] == pytest.approx(-2.0, rel=1e-12)
        if command == "verify":
            assert json.loads((tmp_path / "report.json").read_text())["convergence"]["passed"]


class TestEntryPoint:
    def test_help_lists_each_command_with_its_description(self, tmp_path):
        proc = run_module(["--help"], tmp_path)
        assert proc.returncode == 0
        lines = [line.strip() for line in proc.stdout.splitlines()]
        assert set(cli.COMMANDS) == {"design", "simulate", "verify", "reproduce-example"}
        for name, text in cli.COMMANDS.items():
            assert any(line.startswith(name) and line.endswith(text) for line in lines), name

    def test_design_matches_in_process_bytes(self, tmp_path):
        proc = run_module(["design", "--cp", "1,0", "--out", "sub"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert run_cli(["design", "--cp", "1,0", "--out", str(tmp_path / "inproc")]) == 0
        assert (tmp_path / "sub" / "design.json").read_bytes() == (
            tmp_path / "inproc" / "design.json"
        ).read_bytes()


class TestSharedParser:
    ARGVS = (
        ["bogus"],
        ["--help"],
        ["design", "--cp=0,0"],
        ["design", "--eps-ratio", "5", "--format", "json"],
    )

    def test_one_parser_per_process(self):
        assert cli.build_parser() is cli.build_parser()

    def test_outcomes_do_not_depend_on_earlier_requests(self, tmp_path, capsys):
        """Each argv ends the same way after each of the others, run forward then back."""
        def outcome(argv):
            for stale in tmp_path.iterdir():
                stale.unlink()
            code = run_cli([*argv, "--out", str(tmp_path)])
            captured = capsys.readouterr()
            files = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
            return code, captured.out, captured.err, files

        forward = [outcome(argv) for argv in self.ARGVS]
        backward = [outcome(argv) for argv in reversed(self.ARGVS)][::-1]
        assert backward == forward
        assert [code for code, *_ in forward] == [2, 0, 2, 0]
        assert forward[1][1].startswith("usage: qobserver")
        assert forward[3][2].startswith("warning: squeezing ratio 5")
        assert list(forward[3][3]) == ["design.json"]


# Argvs that the plain pass reads and argvs that only argparse reads: exact,
# abbreviated and unknown options, values that start with "-", hold "=" or are
# empty, a command in any position or none, and tokens that are not str.
EXACT = st.sampled_from(list(cli.OPTION_KEYS))
OPTION = EXACT | st.sampled_from([
    "--eps", "--omega", "--o", "--c", "--form", "--help", "-h", "--bogus", "--omega_o", "--", "-",
])
VALUE = st.sampled_from(
    ["1", "0.5,1", "", "a=b", "=", "-1", "-0.5,1", "--", "-", "design", "--gamma", "-h", "1 2"]
) | st.text(alphabet="-=1a ,", max_size=4)
COMMAND = st.sampled_from([*cli.COMMANDS, "bogus"])


def with_value(option):
    """`option value` or `option=value`, as a list of tokens."""
    pair = st.tuples(option, VALUE)
    return pair.map(list) | pair.map(lambda p: ["=".join(p)])


def flat(pieces):
    return [token for piece in pieces for token in piece]


PIECE = with_value(OPTION) | st.one_of(
    OPTION, VALUE, COMMAND, st.sampled_from([None, 1, 2.5, b"design", ("x",)])
).map(lambda token: [token])
ARGV = st.one_of(
    # mostly well formed: a command, then exact options with their values
    st.tuples(COMMAND, st.lists(with_value(EXACT), max_size=6)).map(lambda p: [p[0], *flat(p[1])]),
    st.tuples(st.lists(PIECE, max_size=1), st.lists(COMMAND, max_size=1), st.lists(PIECE, max_size=5))
    .map(lambda p: flat(p[0]) + p[1] + flat(p[2])),
)


def parsed_by_argparse(argv):
    """`vars` of argparse's namespace for `argv`, or None where it exits, or raises
    TypeError on a token that is not str."""
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return vars(cli.build_parser().parse_args(argv))
    except (SystemExit, TypeError):
        return None


class TestPlainArgs:
    """`cli._plain_args` gives argparse's namespace wherever it reads an argv."""

    @hypothesis.settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @hypothesis.given(argv=ARGV)
    def test_plain_pass_reads_as_argparse(self, argv):
        plain = cli._plain_args(argv)
        parsed = parsed_by_argparse(argv)
        hypothesis.event("plain" if plain is not None else "argparse")
        if parsed is None:
            assert plain is None
        elif plain is not None:
            assert vars(plain) == parsed

    def test_plain_pass_reads_every_form_it_names(self):
        argv = ["verify", "--cp=-0.6,0.8", "--gamma", "2", "--gamma=3", "--out=a=b", "--units", ""]
        plain = cli._plain_args(argv)
        assert vars(plain) == parsed_by_argparse(argv)
        assert (plain.cp, plain.gamma, plain.out, plain.units, plain.delta) == (
            "-0.6,0.8", "3", "a=b", "", None
        )
        assert cli._plain_args(tuple(argv)) is not None

    @pytest.mark.parametrize("argv", [
        [], ["--cp=1,0", "design"], ["design", "--eps", "0.3"], ["design", "--gamma", "-1"],
        ["design", "--gamma"], ["design", "--"], ["design", "-h"], ["design", "--help"],
        ["design", "--cp=--"], ["design", "2"], ["design", "--gamma", 2.0], "design",
    ])
    def test_other_forms_go_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_plain_pass_flags_are_the_parsers(self):
        parser = cli.build_parser()
        options = {flag for flag in parser._option_string_actions if flag.startswith("--")}
        assert set(cli.OPTION_KEYS) == options - {"--help"}
        for flag, key in cli.OPTION_KEYS.items():
            assert parser._option_string_actions[flag].dest == key

    def test_benchmark_requests_take_the_plain_pass(self, monkeypatch):
        # all but the separate negative value of the edge case `gamma_negative`
        monkeypatch.syspath_prepend(str(PERFBENCH))
        import workloads

        rng = random.Random(7)
        requests = [
            workloads.edge_request(rng, case)[:2]
            for case in (*workloads.EDGE_CASES, *workloads.KNOWN_DEFECT_CASES)
        ]
        for name in workloads.WORKLOADS:
            stream = workloads.requests(name, 7)
            requests += [(request.kind, request.argv) for request in itertools.islice(stream, 200)]
        for kind, argv in requests:
            argv = [*argv, "--out", "out"]
            plain = cli._plain_args(argv)
            assert (plain is None) == (kind == "gamma_negative"), argv
            if plain is not None:
                assert vars(plain) == parsed_by_argparse(argv)
