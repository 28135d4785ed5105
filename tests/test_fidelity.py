"""Closed-form Gaussian fidelities, the finite-difference Bures metric,
and the closed-form marginal densities with their quadrature probes."""

import math
import warnings

import numpy as np
import pytest

from gausscensus.fidelity import (
    DomainError,
    ShapeError,
    StepError,
    bures_distance_sq,
    fidelity_one_mode,
    improperness_probe,
    marginal_f,
    marginal_g,
    metric_by_finite_difference,
)
from gausscensus.states import SqueezedThermalParams, squeezed_thermal_covariance

from oracles import fidelity_by_kernels


def random_one_mode(rng) -> np.ndarray:
    # random physical 2x2 covariance: symplectic-squeezed thermal
    nu = 1.0 + 2.0 * rng.random()
    z = math.exp(rng.uniform(-0.6, 0.6))
    phi = rng.uniform(0.0, math.pi)
    c, s = math.cos(phi), math.sin(phi)
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag([nu * z, nu / z]) @ R.T


class TestFidelityOneMode:
    def test_identical_states_give_one(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            A = random_one_mode(rng)
            assert fidelity_one_mode(A, A) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_against_three_vacuum(self):
        F = fidelity_one_mode(np.eye(2), 3.0 * np.eye(2))
        assert F == pytest.approx(0.5, abs=1e-14)

    def test_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A1, A2 = random_one_mode(rng), random_one_mode(rng)
            assert fidelity_one_mode(A1, A2) == pytest.approx(
                fidelity_one_mode(A2, A1), abs=1e-12
            )

    def test_range_and_identity_of_indiscernibles(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            A1, A2 = random_one_mode(rng), random_one_mode(rng)
            F = fidelity_one_mode(A1, A2)
            assert 0.0 < F <= 1.0 + 1e-12
            if F > 1.0 - 1e-9:
                assert np.allclose(A1, A2, atol=1e-4)

    def test_rejects_bad_shape(self):
        with pytest.raises(ShapeError):
            fidelity_one_mode(np.eye(3), np.eye(2))

    def test_rejects_unphysical_radicand(self):
        bad = np.diag([0.1, 0.1])  # det far below 1
        good = 2.0 * np.eye(2)
        with pytest.raises(DomainError):
            fidelity_one_mode(bad, good)

    def test_matches_kernel_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(4):
            A1, A2 = random_one_mode(rng), random_one_mode(rng)
            want = fidelity_one_mode(A1, A2)
            got = fidelity_by_kernels(A1, A2, m=21)
            assert got == pytest.approx(want, rel=0.01)


class TestBuresDistance:
    def test_values(self):
        assert bures_distance_sq(1.0) == 0.0
        assert bures_distance_sq(0.5) == pytest.approx(1.0)
        assert bures_distance_sq(0.99) == pytest.approx(0.02)


class TestMetric:
    def test_symmetric_positive_definite(self):
        g = metric_by_finite_difference(SqueezedThermalParams(beta=4.0, r=0.5, theta=0.0))
        assert g.shape == (3, 3)
        assert np.allclose(g, g.T, atol=1e-12)
        assert np.linalg.eigvalsh(g)[0] > 0.0

    def test_beta_r_block_decouples_at_theta_zero(self):
        g = metric_by_finite_difference(SqueezedThermalParams(beta=4.0, r=0.5, theta=0.0))
        scale = np.abs(g).max()
        assert abs(g[0, 1]) < 1e-5 * scale

    def test_step_error_on_hopeless_step(self):
        with pytest.raises(StepError):
            metric_by_finite_difference(
                SqueezedThermalParams(beta=4.0, r=0.5, theta=0.0), h=0.3
            )

    @pytest.mark.parametrize("h", [0.0, -1e-4, math.nan, math.inf])
    def test_rejects_step_that_is_not_positive_and_finite(self, h):
        with pytest.raises(ValueError, match="positive and finite"):
            metric_by_finite_difference(SqueezedThermalParams(beta=4.0, r=0.5), h=h)

    def test_step_error_on_nan_estimates(self):
        # A NaN parameter makes every estimate NaN; no step agreement
        # can be claimed for it.
        with pytest.raises(StepError), np.errstate(invalid="ignore"):
            metric_by_finite_difference(SqueezedThermalParams(beta=math.nan, r=0.5))

    def test_step_error_where_step_squares_overflow(self):
        # At beta = 1e300 the beta step is 1e296 and its square overflows;
        # the beta row and column would come out 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepError, match="overflow or underflow"):
                metric_by_finite_difference(SqueezedThermalParams(1e300, 0.3))

    def test_volume_element_factorizes(self):
        vals = []
        for beta in (3.0, 5.0):
            for r in (0.3, 0.7):
                g = metric_by_finite_difference(SqueezedThermalParams(beta, r, 0.0))
                root = math.sqrt(np.linalg.det(g))
                vals.append(root / (marginal_f(r) * marginal_g(beta)))
        vals = np.array(vals)
        assert vals.std() / vals.mean() < 1e-3


class TestMarginals:
    def test_f_closed_form(self):
        assert marginal_f(0.0) == 0.0
        assert marginal_f(0.5) == pytest.approx(math.sinh(1.0), rel=1e-14)

    def test_g_at_four(self):
        want = math.cosh(1.0) * (math.cosh(1.0) / math.sinh(1.0)) / math.cosh(2.0) / 8.0
        assert marginal_g(4.0) == pytest.approx(want, rel=1e-14)

    def test_g_positive(self):
        for beta in (0.1, 1.0, 4.0, 20.0):
            assert marginal_g(beta) > 0.0

    def test_f_integral_closed_form(self):
        for R in (10.0, 20.0, 30.0):
            got = improperness_probe(marginal_f, R)
            want = 0.5 * (math.cosh(2.0 * R) - 1.0)
            assert got == pytest.approx(want, rel=1e-8)

    def test_probe_grows_without_bound(self):
        a = improperness_probe(marginal_f, 10.0)
        b = improperness_probe(marginal_f, 20.0)
        c = improperness_probe(marginal_f, 30.0)
        assert a < b < c
        ga = improperness_probe(marginal_g, 10.0)
        gb = improperness_probe(marginal_g, 100.0)
        assert 0.0 < ga < gb

    def test_probe_rejects_bad_input(self):
        for R in (0.0, -1.0):
            with pytest.raises(ValueError, match="upper limit"):
                improperness_probe(marginal_f, R)


class TestSqueezedThermalConsistency:
    def test_zero_squeezing_is_thermal(self):
        A = squeezed_thermal_covariance(SqueezedThermalParams(beta=2.0, r=0.0))
        nu = 1.0 / math.tanh(0.5)
        assert np.allclose(A, nu * np.eye(2), atol=1e-12)

    def test_fidelity_decreases_with_parameter_distance(self):
        base = squeezed_thermal_covariance(SqueezedThermalParams(4.0, 0.5))
        near = squeezed_thermal_covariance(SqueezedThermalParams(4.0, 0.55))
        far = squeezed_thermal_covariance(SqueezedThermalParams(4.0, 0.9))
        assert fidelity_one_mode(base, near) > fidelity_one_mode(base, far)
