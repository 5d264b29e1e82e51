"""The package's public names, the refusals of its constructors and the README's
library example."""

import contextlib
import dataclasses
import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

import qobserver
from qobserver import core, dynamics, errors, ndpa, observer

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
    np.testing.assert_allclose(result.beta, [0.2, 0.0], rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(result.c_o, [-10.0, 0.0], rtol=1e-12, atol=1e-10)
    assert report.passed is True
    assert report.fitted_rate == pytest.approx(1.19, abs=0.005)


def test_every_public_name_resolves_once():
    names = qobserver.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(qobserver, name) is not None


@pytest.mark.parametrize("name", [
    "TolerancePolicy", "make_symplectic_space", "running_average",
    "dominant_frequency", "simulate_means", "time_average_error", "alpha_parameter",
    "OpenNdpaModel", "SingularBeamsplitterError", "QuadraticHamiltonian",
    "generator_from_hamiltonian", "realizability_defect", "observer_design",
    "NdpaDesign", "DesignResult",
])
def test_removed_names_are_gone(name):
    assert name not in qobserver.__all__
    assert not hasattr(qobserver, name)
    for module in (core, dynamics, errors, ndpa, observer):
        assert not hasattr(module, name)


def test_designs_have_one_construction_path():
    # the Hamiltonian route's output rows and the constructor-skipping path are gone
    assert not hasattr(qobserver.LinearQuantumSystem, "with_outputs")
    assert not hasattr(core, "_fresh")


@pytest.mark.parametrize("name", [
    "solve_theta", "solve_phases", "coupling_block", "extract_beta", "build_open_ndpa",
    "close_loop", "hamiltonian_from_drift", "quadrature_hamiltonian",
])
def test_design_stages_are_reached_only_through_design_ndpa(name):
    assert name not in qobserver.__all__
    assert not hasattr(qobserver, name)
    assert callable(getattr(ndpa, name))


ONE_MODE = qobserver.SymplecticSpace(1)
GUARDS = {
    "system_generator_shape": (
        lambda: qobserver.LinearQuantumSystem(np.zeros((4, 4)), np.zeros((0, 2)), ONE_MODE),
        qobserver.DimensionError, "generator shape (4, 4) does not match 2x2",
    ),
    "system_output_shape": (
        lambda: qobserver.LinearQuantumSystem(np.zeros((2, 2)), [1.0, 0.0], ONE_MODE),
        qobserver.DimensionError, "output rows shape (2,) incompatible",
    ),
    "system_nonfinite": (
        lambda: qobserver.LinearQuantumSystem(np.zeros((2, 2)), [[math.inf, 0.0]], ONE_MODE),
        qobserver.NonFiniteError, "system matrices have non-finite entries",
    ),
    "system_generator_past_float": (
        lambda: qobserver.LinearQuantumSystem([[10**400, 0], [0, 0]], np.zeros((0, 2)), ONE_MODE),
        qobserver.NonFiniteError, "system matrices have non-finite entries",
    ),
    "system_outputs_past_float": (
        lambda: qobserver.LinearQuantumSystem(np.zeros((2, 2)), [[0, -10**400]], ONE_MODE),
        qobserver.NonFiniteError, "system matrices have non-finite entries",
    ),
    "system_generator_text": (
        lambda: qobserver.LinearQuantumSystem([["x", 0], [0, 0]], np.zeros((0, 2)), ONE_MODE),
        qobserver.InputError, "a: expected a number, got [['x', 0], [0, 0]]",
    ),
    "system_outputs_text": (
        lambda: qobserver.LinearQuantumSystem(np.zeros((2, 2)), [["x", 0]], ONE_MODE),
        qobserver.InputError, "c: expected a number, got [['x', 0]]",
    ),
    "plant_nonfinite": (
        lambda: qobserver.PlantSpec([math.nan, 1.0]),
        qobserver.InputError, "cp: entries must be finite, got [nan, 1.0]",
    ),
    "design_vector_shape": (
        lambda: qobserver.ObserverDesign(
            [1.0, 0.0], 1.0, np.eye(2), np.zeros((2, 2)), np.zeros(2), [1.0, 0.0, 0.0]
        ),
        qobserver.DimensionError, "c_o must have 2 entries",
    ),
    "design_matrix_shape": (
        lambda: qobserver.ObserverDesign(
            [1.0, 0.0], 1.0, np.eye(3), np.zeros((2, 2)), np.zeros(2), [1.0, 0.0]
        ),
        qobserver.DimensionError, "r_o must be 2x2",
    ),
    "propagator_time": (
        lambda: qobserver.propagator(qobserver.LinearQuantumSystem(
            np.zeros((2, 2)), np.zeros((0, 2)), ONE_MODE), math.nan),
        qobserver.InputError, "t: propagation time must be finite, got nan",
    ),
    "verify_one_horizon": (
        lambda: qobserver.verify_convergence(
            qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer(), horizons=[5.0]),
        qobserver.InputError, "horizons: verify needs at least two horizons",
    ),
    "trajectory_negative_time": (
        lambda: qobserver.coefficient_trajectory(
            qobserver.augment(qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer()),
            [1.0, 0.0, 0.0, 0.0], [-3.0, 0.0]),
        qobserver.InputError, "horizons: all horizons must be positive and finite",
    ),
    "design_text_number": (
        lambda: qobserver.design_ndpa([1, 0], "abc", 1, 0.1),
        qobserver.InputError, "omega_o: expected a number, got 'abc'",
    ),
    "design_text_delta": (
        lambda: qobserver.design_ndpa([1, 0], 1, 1, 0.1, "x"),
        qobserver.InputError, "delta: expected a number, got 'x'",
    ),
    "design_none_number": (
        lambda: qobserver.design_ndpa([1, 0], None, 1, 0.1),
        qobserver.InputError, "omega_o: expected a number",
    ),
    "design_text_selector": (
        lambda: qobserver.design_ndpa(["a", 1], 1, 1, 0.1),
        qobserver.InputError, "cp: expected a number, got ['a', 1]",
    ),
    "verify_text_horizon": (
        lambda: qobserver.verify_convergence(
            qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer(), horizons=["a", 2]),
        qobserver.InputError, "horizons: expected a number, got ('a', 2)",
    ),
    "trajectory_text_time": (
        lambda: qobserver.coefficient_trajectory(
            qobserver.augment(qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer()),
            [1.0, 0.0, 0.0, 0.0], [0.0, "a"]),
        qobserver.InputError, "horizons: expected a number, got [0.0, 'a']",
    ),
    "propagator_text_time": (
        lambda: qobserver.propagator(qobserver.LinearQuantumSystem(
            np.zeros((2, 2)), np.zeros((0, 2)), ONE_MODE), "x"),
        qobserver.InputError, "t: expected a number, got 'x'",
    ),
    "synthesize_beta_shape": (
        lambda: qobserver.synthesize_observer(qobserver.PlantSpec([1.0, 0.0]), 1.0, [0.2]),
        qobserver.DimensionError, "beta must have 2 entries",
    ),
    "verify_number_ladder": (
        lambda: qobserver.verify_convergence(
            qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer(), horizons=5),
        qobserver.InputError, "horizons: verify needs at least two horizons",
    ),
    "trajectory_text_row": (
        lambda: qobserver.coefficient_trajectory(
            qobserver.augment(qobserver.design_ndpa([1.0, 0.0], 1.0, 1.0, 0.1).observer()),
            "abc", [0.0, 1.0]),
        qobserver.InputError, "c_row: expected a number, got 'abc'",
    ),
    "synthesize_text_number": (
        lambda: qobserver.synthesize_observer(qobserver.PlantSpec([1, 0]), "x", [0.2, 0]),
        qobserver.InputError, "omega_o: expected a number, got 'x'",
    ),
    "synthesize_text_beta": (
        lambda: qobserver.synthesize_observer(qobserver.PlantSpec([1, 0]), 1.0, ["x", 0]),
        qobserver.InputError, "beta: expected a number, got ['x', 0]",
    ),
    "observer_design_text_number": (
        lambda: qobserver.ObserverDesign(
            [1.0, 0.0], "x", np.eye(2), np.zeros((2, 2)), np.zeros(2), [1.0, 0.0]
        ),
        qobserver.InputError, "omega_o: expected a number, got 'x'",
    ),
}


@pytest.mark.parametrize("name", GUARDS)
def test_public_constructors_refuse_bad_input(name):
    build, error, fragment = GUARDS[name]
    with pytest.raises(error, match=re.escape(fragment)):
        build()


def test_tolerances_are_the_documented_constants():
    assert (core.EXACT_TOL, core.DESIGN_TOL) == (1e-12, 1e-9)
    text = " ".join(README.read_text().split())
    assert "`EXACT_TOL = 1e-12`" in text and "`DESIGN_TOL = 1e-9`" in text


def test_models_carry_only_the_fields_that_are_read():
    def fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls))

    assert fields(qobserver.SymplecticSpace) == ("modes", "theta")
    assert fields(qobserver.LinearQuantumSystem) == ("a", "c", "space")
    assert qobserver.Design._fields == (
        "params", "alpha", "f", "m", "r", "c_p", "beta", "c_o", "r_o", "r_c", "report"
    )
    assert fields(qobserver.Trajectory) == ("times", "coefficient_rows", "running_average")
    assert "tol" not in fields(qobserver.ObserverDiagnostics)
