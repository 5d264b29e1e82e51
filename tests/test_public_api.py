"""The package's public names and the README's library example."""

import contextlib
import dataclasses
import io
import re
from pathlib import Path

import numpy as np
import pytest

import qobserver
from qobserver import core, dynamics

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_library_example() -> str:
    text = README.read_text()
    section = text[text.index("## Library example"):]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_readme_library_example_prints_what_its_comments_claim():
    namespace, printed = {}, io.StringIO()
    with contextlib.redirect_stdout(printed):
        exec(compile(readme_library_example(), str(README), "exec"), namespace)
    result, report = namespace["result"], namespace["report"]
    assert printed.getvalue().startswith("168.578")
    np.testing.assert_allclose(result.ndpa.beta, [0.2, 0.0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(result.ndpa.c_o, [-10.0, 0.0], rtol=1e-12, atol=1e-10)
    assert report.passed is True
    assert report.fitted_rate == pytest.approx(1.19, abs=0.005)


def test_every_public_name_resolves_once():
    names = qobserver.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qobserver, name) is not None


@pytest.mark.parametrize("name", ["TolerancePolicy", "make_symplectic_space", "running_average"])
def test_removed_names_are_gone(name):
    assert name not in qobserver.__all__
    assert not hasattr(qobserver, name)
    assert not hasattr(core, name)
    assert not hasattr(dynamics, name)


def test_tolerances_are_the_documented_constants():
    assert (core.EXACT_TOL, core.DESIGN_TOL) == (1e-12, 1e-9)
    text = " ".join(README.read_text().split())
    assert "`EXACT_TOL = 1e-12`" in text and "`DESIGN_TOL = 1e-9`" in text


def test_models_carry_only_the_fields_that_are_read():
    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(qobserver.SymplecticSpace) == ("modes", "theta")
    assert fields(qobserver.LinearQuantumSystem) == ("a", "c", "space")
    assert fields(qobserver.OpenNdpaModel) == ("drift", "gamma")
    assert fields(qobserver.Trajectory) == ("times", "coefficient_rows", "running_average")
    assert "tol" not in fields(qobserver.ObserverDiagnostics)
