import math

import numpy as np
import pytest

from gausscensus.states import (
    OMEGA,
    DegenerateError,
    NoConvergenceError,
    SqueezedThermalParams,
    StandardFormI,
    entropy,
    is_physical,
    squeezed_thermal_covariance,
    symplectic_eigenvalues,
    to_standard_form_one,
    to_standard_form_two,
)

from oracles import (
    form_one_matrix,
    form_two_scan,
    random_local_symplectic,
)


def tmsv(r: float) -> np.ndarray:
    # two-mode squeezed vacuum in the vacuum-equals-identity convention
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return form_one_matrix(ch, ch, sh, -sh)


def random_form_one(rng) -> StandardFormI:
    n = 1.0 + rng.uniform(0.0, 3.0)
    m = 1.0 + rng.uniform(0.0, 3.0)
    # keep the block two-by-two determinants positive so the matrix is
    # a plausible physical candidate rather than an arbitrary one
    c = rng.uniform(0.0, 0.9) * math.sqrt(n * m)
    cp = rng.uniform(-0.9, 0.9) * math.sqrt(n * m)
    return StandardFormI(n=n, m=m, c=c, cp=cp)


class TestPositivityAndPhysicality:
    def test_identity_is_physical(self):
        assert is_physical(np.eye(4))

    def test_half_identity_is_unphysical(self):
        M = 0.5 * np.eye(4)
        assert np.linalg.eigvalsh(M)[0] > 0.0
        assert not is_physical(M)

    def test_indefinite_matrix_rejected(self):
        M = np.diag([2.0, 2.0, 2.0, -1.0])
        assert not is_physical(M)

    def test_strong_correlation_breaks_positivity(self):
        M = form_one_matrix(2.0, 3.0, 3.0, 0.0)
        # eigenvalues of the (n, m, c) pencil are (5 +- sqrt(37))/2
        assert np.linalg.eigvalsh(M)[0] < 0.0
        assert not is_physical(M)

    def test_omega_is_write_protected(self):
        with pytest.raises(ValueError):
            OMEGA[0, 1] = 5.0


class TestStandardFormOne:
    def test_block_diagonal_example(self):
        M = np.zeros((4, 4))
        M[:2, :2] = 2.0 * np.eye(2)
        M[2:, 2:] = 3.0 * np.eye(2)
        M[0, 2] = M[2, 0] = 1.0
        M[1, 3] = M[3, 1] = -0.5
        f = to_standard_form_one(M)
        assert (f.n, f.m) == (2.0, 3.0)
        assert f.c == pytest.approx(1.0, rel=1e-12)
        assert f.cp == pytest.approx(-0.5, rel=1e-12)

    def test_vacuum(self):
        f = to_standard_form_one(np.eye(4))
        assert (f.n, f.m, f.c, f.cp) == (1.0, 1.0, 0.0, 0.0)

    def test_c_sign_convention(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            f0 = random_form_one(rng)
            M = form_one_matrix(f0.n, f0.m, f0.c, f0.cp)
            if not np.linalg.eigvalsh(M)[0] > 0.0:
                continue
            f = to_standard_form_one(M)
            assert f.c >= 0.0
            assert abs(f.c) >= abs(f.cp) - 1e-12

    def test_recovers_parameters_under_local_symplectics(self):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(200):
            f0 = random_form_one(rng)
            M0 = form_one_matrix(f0.n, f0.m, f0.c, f0.cp)
            if not np.linalg.eigvalsh(M0)[0] > 0.0:
                continue
            S = random_local_symplectic(rng)
            f = to_standard_form_one(S @ M0 @ S.T)
            assert f.n == pytest.approx(f0.n, rel=1e-9)
            assert f.m == pytest.approx(f0.m, rel=1e-9)
            # the reduction orders |c| >= |cp| and keeps sign(c * cp)
            big, small = sorted([abs(f0.c), abs(f0.cp)], reverse=True)
            assert f.c == pytest.approx(big, rel=1e-9, abs=1e-9)
            assert abs(f.cp) == pytest.approx(small, rel=1e-9, abs=1e-9)
            assert f.c * f.cp == pytest.approx(f0.c * f0.cp, rel=1e-8, abs=1e-9)
            checked += 1
        assert checked > 100

    def test_determinant_invariants_respected(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            A = rng.normal(size=(4, 4))
            M = A @ A.T + 0.5 * np.eye(4)
            f = to_standard_form_one(M)
            sf = form_one_matrix(f.n, f.m, f.c, f.cp)
            assert np.linalg.det(sf) == pytest.approx(np.linalg.det(M), rel=1e-8)
            assert f.c * f.cp == pytest.approx(
                np.linalg.det(M[:2, 2:]), rel=1e-8, abs=1e-10)


class TestStandardFormTwo:
    def test_two_mode_squeezed_vacuum(self):
        f2 = to_standard_form_two(to_standard_form_one(tmsv(0.5)))
        assert f2.r1 == pytest.approx(1.0, rel=1e-10)
        assert f2.r2 == pytest.approx(1.0, rel=1e-10)
        assert f2.a0 == pytest.approx(1.0, rel=1e-10)

    def test_product_thermal_state(self):
        M = np.diag([2.0, 2.0, 3.0, 3.0])
        f2 = to_standard_form_two(to_standard_form_one(M))
        assert f2.c1 == pytest.approx(0.0, abs=1e-12)
        assert f2.c2 == pytest.approx(0.0, abs=1e-12)
        assert f2.n1 * f2.n2 == pytest.approx(4.0, rel=1e-10)
        assert f2.m1 * f2.m2 == pytest.approx(9.0, rel=1e-10)

    def test_degenerate_vacuum_with_correlation_raises(self):
        f1 = StandardFormI(n=1.0, m=1.0, c=0.3, cp=0.1)
        with pytest.raises(DegenerateError):
            to_standard_form_two(f1)

    def test_below_vacuum_rejected(self):
        with pytest.raises(ValueError):
            to_standard_form_two(StandardFormI(n=0.8, m=2.0, c=0.0, cp=0.0))

    def test_residuals_vanish_on_random_states(self):
        rng = np.random.default_rng(11)
        solved = 0
        for _ in range(300):
            f0 = random_form_one(rng)
            M = form_one_matrix(f0.n, f0.m, f0.c, f0.cp)
            if not np.linalg.eigvalsh(M)[0] > 0.0:
                continue
            f1 = to_standard_form_one(M)
            try:
                f2 = to_standard_form_two(f1)
            except (NoConvergenceError, DegenerateError):
                continue
            solved += 1
            # defining constraints of the reduction
            assert f2.n1 * f2.n2 == pytest.approx(f1.n ** 2, rel=1e-9)
            assert f2.m1 * f2.m2 == pytest.approx(f1.m ** 2, rel=1e-9)
            lhs = (f2.n1 - 1.0) * (f2.m2 - 1.0)
            rhs = (f2.n2 - 1.0) * (f2.m1 - 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)
            s = math.sqrt(f2.r1 * f2.r2)
            gap = abs(f1.c) * s - abs(f1.cp) / s
            root_gap = math.sqrt(max((f2.n1 - 1) * (f2.m1 - 1), 0.0)) - math.sqrt(
                max((f2.n2 - 1) * (f2.m2 - 1), 0.0))
            assert gap == pytest.approx(root_gap, rel=1e-7, abs=1e-9)
        assert solved > 150

    def test_agrees_with_scan_oracle(self):
        rng = np.random.default_rng(23)
        compared = 0
        for _ in range(200):
            f0 = random_form_one(rng)
            M = form_one_matrix(f0.n, f0.m, f0.c, f0.cp)
            if not np.linalg.eigvalsh(M)[0] > 0.0:
                continue
            f1 = to_standard_form_one(M)
            try:
                f2 = to_standard_form_two(f1)
            except (NoConvergenceError, DegenerateError):
                continue
            ref = form_two_scan(f1.n, f1.m, f1.c, f1.cp)
            if ref is None:
                continue
            compared += 1
            for name in ("n1", "n2", "m1", "m2", "c1", "c2", "a0"):
                assert getattr(f2, name) == pytest.approx(
                    ref[name], rel=1e-6, abs=1e-8), name
        assert compared > 100


class TestSymplecticSpectrum:
    def test_vacuum(self):
        assert symplectic_eigenvalues(np.eye(4)) == (1.0, 1.0)

    def test_thermal_product(self):
        nu = symplectic_eigenvalues(np.diag([2.0, 2.0, 5.0, 5.0]))
        assert sorted(nu) == pytest.approx([2.0, 5.0], rel=1e-12)

    def test_pure_squeezed_state(self):
        nu = symplectic_eigenvalues(tmsv(0.7))
        assert nu == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_matches_eigenvalues_of_omega_product(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            M = A @ A.T + 1.5 * np.eye(4)
            got = sorted(symplectic_eigenvalues(M))
            ref = np.abs(np.linalg.eigvals(1j * OMEGA @ M))
            ref = sorted(set(np.round(ref, 9)))
            assert got == pytest.approx(sorted(ref), rel=1e-7)

    def test_product_equals_root_determinant(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            A = rng.normal(size=(4, 4))
            M = A @ A.T + 1.5 * np.eye(4)
            nu1, nu2 = symplectic_eigenvalues(M)
            assert nu1 * nu2 == pytest.approx(
                math.sqrt(np.linalg.det(M)), rel=1e-9)


class TestEntropyAndPurity:
    """Entropy from the symplectic spectrum; a state of zero entropy is
    pure."""

    def test_vacuum_entropy_zero(self):
        assert entropy(np.eye(4)) == 0.0

    def test_two_mode_squeezed_vacuum_is_pure(self):
        # symplectic eigenvalues land at 1 + O(1e-8), and the entropy
        # picks up an eps*log(eps) sliver from the roundoff
        assert entropy(tmsv(0.8)) == pytest.approx(0.0, abs=1e-6)

    def test_thermal_value(self):
        # nu = 2: ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2)
        expected = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
        assert entropy(2.0 * np.eye(2)) == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.9547712524422623, rel=1e-15)

    def test_additive_over_product_states(self):
        M = np.diag([2.0, 2.0, 5.0, 5.0])
        total = entropy(M)
        parts = entropy(2.0 * np.eye(2)) + entropy(5.0 * np.eye(2))
        assert total == pytest.approx(parts, rel=1e-12)


class TestSqueezedThermalCovariance:
    def test_infinite_temperature_limit_is_identity_scale(self):
        A = squeezed_thermal_covariance(SqueezedThermalParams(beta=50.0, r=0.0))
        assert np.allclose(A, np.eye(2), atol=1e-8)

    def test_determinant_depends_only_on_beta(self):
        for r in (0.0, 0.4, 1.1):
            A = squeezed_thermal_covariance(
                SqueezedThermalParams(beta=3.0, r=r, theta=0.3))
            coth = 1.0 / math.tanh(0.75)
            assert np.linalg.det(A) == pytest.approx(coth ** 2, rel=1e-12)

    def test_rotation_conjugates(self):
        p0 = SqueezedThermalParams(beta=4.0, r=0.5, theta=0.0)
        p1 = SqueezedThermalParams(beta=4.0, r=0.5, theta=0.6)
        A0 = squeezed_thermal_covariance(p0)
        A1 = squeezed_thermal_covariance(p1)
        c, s = math.cos(0.6), math.sin(0.6)
        R = np.array([[c, -s], [s, c]])
        assert np.allclose(R @ A0 @ R.T, A1, atol=1e-12)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            squeezed_thermal_covariance(SqueezedThermalParams(beta=-1.0, r=0.1))
        with pytest.raises(ValueError):
            squeezed_thermal_covariance(SqueezedThermalParams(beta=2.0, r=-0.1))
