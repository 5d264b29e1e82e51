import dataclasses
import math
import warnings

import numpy as np
import pytest

from qobserver import (
    DesignError,
    DimensionError,
    InputError,
    NonFiniteError,
    PipelineError,
    PlantSpec,
    design_ndpa,
    augment,
    maxabs,
    realizability_defect,
    synthesize_observer,
    validate_observer,
    verify_convergence,
)
from qobserver.observer import normalized_constraint_defect


def example_design_si():
    return synthesize_observer(PlantSpec([1.0, 0.0]), 1e8, [2e7, 0.0])


def example_design_nondim():
    return synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.2, 0.0])


class TestPlantSpec:
    def test_zero_selector_rejected(self):
        with pytest.raises(InputError, match="plant output selector is zero"):
            PlantSpec([0.0, 0.0])

    def test_bad_shape_rejected(self):
        with pytest.raises(InputError, match=r"^cp: expected two numbers, got \[1\.0, 0\.0, 0\.0\]$"):
            PlantSpec([1.0, 0.0, 0.0])


class TestSynthesize:
    def test_reference_values(self):
        design = example_design_si()
        np.testing.assert_allclose(design.c_o, [-10.0, 0.0], rtol=1e-12)
        np.testing.assert_allclose(
            design.r_c, [[2e7, 0.0], [0.0, 0.0]], rtol=1e-12, atol=0.0
        )
        np.testing.assert_allclose(design.r_o, 2e8 * np.eye(2), rtol=1e-12)

    def test_unit_beta(self):
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [1.0, 0.0])
        np.testing.assert_allclose(design.c_o, [-2.0, 0.0], rtol=1e-13)

    def test_momentum_selector(self):
        # c_o beta^T = -2 omega_o checked by hand: [0, 0.5] . [0, -4] = -2
        design = synthesize_observer(PlantSpec([0.0, 1.0]), 1.0, [0.0, -4.0])
        np.testing.assert_allclose(design.c_o, [0.0, 0.5], rtol=1e-13)
        np.testing.assert_allclose(design.r_c, [[0.0, 0.0], [0.0, -4.0]], atol=0.0)

    def test_design_keeps_its_own_beta(self):
        # the design's arrays are made read-only; the caller's beta is not one of them
        beta = np.array([0.2, 0.0])
        design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, beta)
        beta[0] = 5.0
        assert design.beta.tolist() == [0.2, 0.0] and not design.beta.flags.writeable

    def test_zero_beta_rejected(self):
        with pytest.raises(DesignError, match="beta is zero"):
            synthesize_observer(PlantSpec([1.0, 0.0]), 1.0, [0.0, 0.0])

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(DesignError, match="positive"):
            synthesize_observer(PlantSpec([1.0, 0.0]), 0.0, [1.0, 0.0])
        with pytest.raises(DesignError, match="positive"):
            synthesize_observer(PlantSpec([1.0, 0.0]), -1.0, [1.0, 0.0])

    def test_beta_scaling_leaves_product_invariant(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            c_p = rng.normal(size=2)
            while np.max(np.abs(c_p)) == 0.0:
                c_p = rng.normal(size=2)
            beta = rng.normal(size=2) + np.array([0.1, 0.0])
            omega = float(rng.uniform(0.2, 5.0))
            s = float(rng.uniform(0.1, 10.0))
            d1 = synthesize_observer(PlantSpec(c_p), omega, beta)
            d2 = synthesize_observer(PlantSpec(c_p), omega, s * beta)
            np.testing.assert_allclose(d2.c_o, d1.c_o / s, rtol=1e-12)
            assert float(d2.c_o @ d2.beta) == pytest.approx(-2.0 * omega, rel=1e-12)

    @pytest.mark.parametrize("size", [1e155, 1e300, 1e-160, 1e-300])
    def test_extreme_beta_keeps_the_constraint(self, size):
        # |beta|^2 overflows or underflows, C_o beta^T = -2 omega_o still holds
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            design = synthesize_observer(PlantSpec([1.0, 0.0]), 1.5, [size, 0.3 * size])
            assert validate_observer(design).passed
        assert float(design.c_o @ design.beta) == pytest.approx(-3.0, rel=1e-14)

    def test_overflowing_c_o_is_typed(self):
        # omega_o / |beta| = 5e520: C_o would be [-inf, -inf]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError, match="C_o"):
                synthesize_observer(PlantSpec([1.0, 0.0]), 1.4e224, [2.8e-298, 1.7e-314])
            with pytest.raises(PipelineError, match=r"\[synthesize_observer\]") as caught:
                design_ndpa([1.0, 0.0], 1.4e224, 1.4e-297, 0.1)
        assert isinstance(caught.value.__cause__, NonFiniteError)

    def test_beta_with_three_entries_rejected(self):
        with pytest.raises(DimensionError, match=r"^beta must have 2 entries, got \(3,\)$"):
            synthesize_observer(PlantSpec([1, 0]), 1.0, [1.0, 2.0, 3.0])

    def test_c_o_matches_unscaled_formula_bit_for_bit(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            beta = rng.normal(size=2) * 10.0 ** rng.uniform(-100, 100)
            omega = float(10.0 ** rng.uniform(-3, 3))
            design = synthesize_observer(PlantSpec([1.0, 0.0]), omega, beta)
            np.testing.assert_array_equal(
                design.c_o, (-2.0 * omega / float(beta @ beta)) * beta
            )


class TestValidate:
    def test_reference_design_passes(self):
        diag = validate_observer(example_design_si())
        assert diag.passed
        assert diag.coupling_defect == 0.0
        assert diag.constraint_defect <= 1e-9 * 2e8
        assert diag.normalized_constraint_defect <= 1e-12
        assert diag.r_o_min_eigenvalue == pytest.approx(2e8)
        # [-10, 7] . [2e7, 0] = -2 omega_o: any point of the solution line passes
        off_minimum = dataclasses.replace(example_design_si(), c_o=np.array([-10.0, 7.0]))
        assert validate_observer(off_minimum).passed

    def test_scaled_c_o_fails_linearly(self):
        design = example_design_si()
        bad = dataclasses.replace(design, c_o=2.0 * design.c_o)
        diag = validate_observer(bad)
        assert not diag.passed
        assert diag.constraint_defect == pytest.approx(2.0 * design.omega_o)
        assert any("constraint" in f for f in diag.failures)

    def test_coupling_defect_is_relative(self):
        # R_c off C_p^T beta by 5e-7 of max|R_c| fails at either scale
        design = example_design_nondim()
        r_c = design.r_c + [[1e-7, 0.0], [0.0, 0.0]]
        for scale in (1e-6, 1e6):
            scaled = dataclasses.replace(
                design, omega_o=scale * design.omega_o, r_o=scale * design.r_o,
                r_c=scale * r_c, beta=scale * design.beta,
            )
            diag = validate_observer(scaled)
            assert diag.coupling_defect == pytest.approx(5e-7 * maxabs(scaled.r_c), rel=1e-6)
            assert diag.failures == ("coupling block R_c differs from C_p^T beta",)

    def test_infinite_r_o_is_not_positive_definite(self):
        design = example_design_nondim()
        bad = dataclasses.replace(design, r_o=np.array([[math.inf, 0.0], [0.0, 2.0]]))
        diag = validate_observer(bad)
        assert math.isnan(diag.r_o_min_eigenvalue)
        assert diag.normalized_constraint_defect == math.inf
        assert diag.failures == (
            "observer energy matrix R_o is not positive definite",
            "output constraint C_o R_o^{-1} beta^T = -1 violated",
        )

    def test_zero_beta_flagged(self):
        design = example_design_nondim()
        bad = dataclasses.replace(design, beta=np.zeros(2))
        diag = validate_observer(bad)
        assert not diag.passed
        assert diag.beta_is_zero
        assert any("no coupling" in f for f in diag.failures)


    @pytest.mark.parametrize("symmetric", [True, False])
    def test_least_eigenvalue_matches_eigvalsh(self, symmetric):
        # the closed form reads the lower triangle, as eigvalsh does; over
        # 2e5 draws of this kind the worst defect was 2.9 eps max|R_o|
        rng = np.random.default_rng(17)
        design = example_design_nondim()
        eps = np.finfo(float).eps
        for _ in range(2000):
            r_o = rng.normal(size=(2, 2)) * 10.0 ** rng.uniform(-4, 4, size=(2, 2))
            r_o *= 10.0 ** rng.uniform(-300, 300)
            if symmetric:
                r_o = (r_o + r_o.T) / 2.0
            got = validate_observer(dataclasses.replace(design, r_o=r_o)).r_o_min_eigenvalue
            want = float(np.linalg.eigvalsh(r_o).min())
            assert abs(got - want) <= 4.0 * eps * maxabs(r_o)

    @pytest.mark.parametrize(
        "control, failures",
        [
            (
                {"r_o": np.diag([2.0, -2.0])},
                (
                    "observer energy matrix R_o is not positive definite",
                    "output constraint C_o R_o^{-1} beta^T = -1 violated",
                ),
            ),
            (
                {"beta": np.zeros(2)},
                (
                    "coupling block R_c differs from C_p^T beta",
                    "no coupling: beta is zero, observer never sees the plant",
                    "output constraint C_o R_o^{-1} beta^T = -1 violated",
                ),
            ),
            (
                {"c_o": np.array([-20.0, 0.0])},
                ("output constraint C_o R_o^{-1} beta^T = -1 violated",),
            ),
        ],
        ids=["indefinite_r_o", "zero_beta", "doubled_c_o"],
    )
    def test_negative_controls_keep_their_failures(self, control, failures):
        assert validate_observer(dataclasses.replace(example_design_nondim(), **control)).failures == failures

    @pytest.mark.parametrize(
        "control, defect",
        [({}, 0.0), ({"r_o": np.diag([2.0, -2.0])}, math.inf), ({"r_o": np.array([[2.0, 9.0], [-3.0, 2.0]])}, math.inf),
         ({"beta": np.zeros(2)}, math.inf), ({"c_o": np.array([-20.0, 0.0])}, 1.0)],
        ids=["reference", "indefinite_r_o", "indefinite_lower_triangle", "zero_beta", "doubled_c_o"],
    )
    def test_verify_reads_the_validated_constraint_defect(self, control, defect):
        # one helper gives validate_observer's field and the verify report's limit defect
        design = dataclasses.replace(example_design_nondim(), **control)
        assert normalized_constraint_defect(design) == defect
        assert validate_observer(design).normalized_constraint_defect == defect
        assert verify_convergence(design).averaged_limit_defect == defect


class TestAugment:
    def test_coupling_block_structure(self):
        design = example_design_nondim()
        sys = augment(design)
        j = np.array([[0.0, 1.0], [-1.0, 0.0]])
        np.testing.assert_array_equal(sys.a[:2, 2:], 2.0 * j @ design.r_c)
        np.testing.assert_array_equal(sys.a[:2, :2], np.zeros((2, 2)))

    def test_outputs_attached(self):
        design = example_design_nondim()
        sys = augment(design)
        np.testing.assert_array_equal(sys.c[0], [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_array_equal(sys.c[1], [0.0, 0.0, -10.0, 0.0])

    def test_zero_beta_decouples(self):
        design = dataclasses.replace(example_design_nondim(), beta=np.zeros(2),
                                     r_c=np.zeros((2, 2)))
        sys = augment(design)
        assert np.array_equal(sys.a[:2, 2:], np.zeros((2, 2)))
        assert np.array_equal(sys.a[2:, :2], np.zeros((2, 2)))

    def test_plant_row_annihilates_generator(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            c_p = rng.normal(size=2)
            if np.max(np.abs(c_p)) == 0.0:
                continue
            beta = rng.normal(size=2)
            if np.max(np.abs(beta)) == 0.0:
                continue
            design = synthesize_observer(PlantSpec(c_p), float(rng.uniform(0.2, 4.0)), beta)
            sys = augment(design)
            assert np.max(np.abs(sys.c[0] @ sys.a)) <= 1e-12

    def test_augmented_is_realizable(self):
        sys = augment(example_design_nondim())
        assert realizability_defect(sys) <= 1e-15

    def test_rank_one_coupling_determinant(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            c_p = rng.normal(size=2) + np.array([0.5, 0.0])
            beta = rng.normal(size=2) + np.array([0.5, 0.0])
            design = synthesize_observer(PlantSpec(c_p), 1.0, beta)
            # rank-one by construction: det(C_p^T beta) = 0 exactly
            assert np.linalg.det(design.r_c) == pytest.approx(0.0, abs=1e-16)
