import math

import numpy as np
import pytest

from gausscensus.states import (
    OMEGA,
    SolverFailure,
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


def random_form_one(rng) -> tuple[float, float, float, float]:
    n = 1.0 + rng.uniform(0.0, 3.0)
    m = 1.0 + rng.uniform(0.0, 3.0)
    # keep the block two-by-two determinants positive so the matrix is
    # a plausible physical candidate rather than an arbitrary one
    c = rng.uniform(0.0, 0.9) * math.sqrt(n * m)
    cp = rng.uniform(-0.9, 0.9) * math.sqrt(n * m)
    return n, m, c, cp


def random_form_one_stack(rng, count):
    """Parameters (count, 4) and matrices of the positive definite
    draws among count random form-I draws."""
    params = np.array([random_form_one(rng) for _ in range(count)])
    M = np.array([form_one_matrix(*p) for p in params])
    pd = np.linalg.eigvalsh(M)[:, 0] > 0.0
    return params[pd], M[pd]


class TestPositivityAndPhysicality:
    def test_identity_is_physical(self):
        assert is_physical(np.eye(4)[None])[0]

    def test_half_identity_is_unphysical(self):
        M = 0.5 * np.eye(4)
        assert np.linalg.eigvalsh(M)[0] > 0.0
        assert not is_physical(M[None])[0]

    def test_indefinite_matrix_rejected(self):
        M = np.diag([2.0, 2.0, 2.0, -1.0])
        assert not is_physical(M[None])[0]

    def test_strong_correlation_breaks_positivity(self):
        M = form_one_matrix(2.0, 3.0, 3.0, 0.0)
        # eigenvalues of the (n, m, c) pencil are (5 +- sqrt(37))/2
        assert np.linalg.eigvalsh(M)[0] < 0.0
        assert not is_physical(M[None])[0]

    def test_stack_gives_one_verdict_per_matrix(self):
        M = np.stack([np.eye(4), 0.5 * np.eye(4), 2.0 * np.eye(4)])
        assert list(is_physical(M)) == [True, False, True]
        assert is_physical(np.zeros((0, 4, 4))).shape == (0,)

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
        f = to_standard_form_one(M[None])
        assert (f.n[0], f.m[0]) == (2.0, 3.0)
        assert f.c[0] == pytest.approx(1.0, rel=1e-12)
        assert f.cp[0] == pytest.approx(-0.5, rel=1e-12)

    def test_vacuum(self):
        f = to_standard_form_one(np.eye(4)[None])
        assert (f.n[0], f.m[0], f.c[0], f.cp[0]) == (1.0, 1.0, 0.0, 0.0)

    def test_c_sign_convention(self):
        rng = np.random.default_rng(42)
        _, M = random_form_one_stack(rng, 50)
        f = to_standard_form_one(M)
        assert (f.c >= 0.0).all()
        assert (np.abs(f.c) >= np.abs(f.cp) - 1e-12).all()

    def test_recovers_parameters_under_local_symplectics(self):
        rng = np.random.default_rng(7)
        params, moved = [], []
        for _ in range(200):
            f0 = random_form_one(rng)
            M0 = form_one_matrix(*f0)
            if not np.linalg.eigvalsh(M0)[0] > 0.0:
                continue
            S = random_local_symplectic(rng)
            params.append(f0)
            moved.append(S @ M0 @ S.T)
        n, m, c, cp = np.array(params).T
        f = to_standard_form_one(np.array(moved))
        assert f.n == pytest.approx(n, rel=1e-9)
        assert f.m == pytest.approx(m, rel=1e-9)
        # the reduction orders |c| >= |cp| and keeps sign(c * cp)
        big = np.maximum(np.abs(c), np.abs(cp))
        small = np.minimum(np.abs(c), np.abs(cp))
        assert f.c == pytest.approx(big, rel=1e-9, abs=1e-9)
        assert np.abs(f.cp) == pytest.approx(small, rel=1e-9, abs=1e-9)
        assert f.c * f.cp == pytest.approx(c * cp, rel=1e-8, abs=1e-9)
        assert len(moved) > 100

    def test_determinant_invariants_respected(self):
        rng = np.random.default_rng(3)
        A = np.array([rng.normal(size=(4, 4)) for _ in range(100)])
        M = A @ A.swapaxes(1, 2) + 0.5 * np.eye(4)
        f = to_standard_form_one(M)
        sf = np.array([form_one_matrix(*p) for p in zip(f.n, f.m, f.c, f.cp)])
        assert np.linalg.det(sf) == pytest.approx(np.linalg.det(M), rel=1e-8)
        assert f.c * f.cp == pytest.approx(np.linalg.det(M[:, :2, 2:]), rel=1e-8, abs=1e-10)

    @pytest.mark.filterwarnings("error")
    def test_nonpositive_block_determinant_is_below_vacuum(self):
        # det A = -1 (and, in the second lane, det B = 0): no form I
        # exists.  The lane used to come out NaN with failure NONE, a
        # sqrt warning, and SINGULAR_JACOBIAN from form II.
        M = np.stack([np.diag([-1.0, 1.0, 2.0, 2.0]), np.diag([2.0, 2.0, 0.0, 3.0]),
                      2.0 * np.eye(4)])
        f1 = to_standard_form_one(M)
        below = SolverFailure.BELOW_VACUUM
        assert list(f1.failure) == [below, below, SolverFailure.NONE]
        assert np.isnan([f1.n[:2], f1.m[:2], f1.c[:2], f1.cp[:2]]).all()
        assert (f1.n[2], f1.m[2]) == (2.0, 2.0)
        assert list(to_standard_form_two(f1).failure) == [below, below, SolverFailure.NONE]


class TestStandardFormTwo:
    def test_two_mode_squeezed_vacuum(self):
        f2 = to_standard_form_two(to_standard_form_one(tmsv(0.5)[None]))
        assert f2.r1[0] == pytest.approx(1.0, rel=1e-10)
        assert f2.r2[0] == pytest.approx(1.0, rel=1e-10)
        assert f2.a0[0] == pytest.approx(1.0, rel=1e-10)

    def test_product_thermal_state(self):
        M = np.diag([2.0, 2.0, 3.0, 3.0])
        f2 = to_standard_form_two(to_standard_form_one(M[None]))
        assert f2.c1[0] == pytest.approx(0.0, abs=1e-12)
        assert f2.c2[0] == pytest.approx(0.0, abs=1e-12)
        assert f2.n1[0] * f2.n2[0] == pytest.approx(4.0, rel=1e-10)
        assert f2.m1[0] * f2.m2[0] == pytest.approx(9.0, rel=1e-10)

    def test_below_vacuum_rejected(self):
        f2 = to_standard_form_two(StandardFormI(
            n=np.array([0.8, 2.0]), m=np.array([2.0, 2.0]), c=np.zeros(2), cp=np.zeros(2)))
        assert list(f2.failure) == [SolverFailure.BELOW_VACUUM, SolverFailure.NONE]
        assert math.isnan(f2.a0[0]) and f2.a0[1] > 0.0

    def test_residuals_vanish_on_random_states(self):
        rng = np.random.default_rng(11)
        _, M = random_form_one_stack(rng, 300)
        f1 = to_standard_form_one(M)
        f2 = to_standard_form_two(f1)
        ok = f2.failure == SolverFailure.NONE
        assert set(f2.failure[~ok]) <= {
            SolverFailure.DEGENERATE, SolverFailure.START_OUTSIDE, SolverFailure.SINGULAR_JACOBIAN,
            SolverFailure.LINE_SEARCH_STALLED, SolverFailure.BUDGET_EXHAUSTED,
            SolverFailure.INADMISSIBLE_ROOT}
        n, m, c, cp = f1.n[ok], f1.m[ok], f1.c[ok], f1.cp[ok]
        n1, n2, m1, m2, r1, r2 = (x[ok] for x in (f2.n1, f2.n2, f2.m1, f2.m2, f2.r1, f2.r2))
        # defining constraints of the reduction
        assert n1 * n2 == pytest.approx(n ** 2, rel=1e-9)
        assert m1 * m2 == pytest.approx(m ** 2, rel=1e-9)
        lhs = (n1 - 1.0) * (m2 - 1.0)
        rhs = (n2 - 1.0) * (m1 - 1.0)
        assert lhs == pytest.approx(rhs, rel=1e-7, abs=1e-9)
        s = np.sqrt(r1 * r2)
        gap = np.abs(c) * s - np.abs(cp) / s
        root_gap = np.sqrt(np.maximum((n1 - 1) * (m1 - 1), 0.0)) - np.sqrt(
            np.maximum((n2 - 1) * (m2 - 1), 0.0))
        assert gap == pytest.approx(root_gap, rel=1e-7, abs=1e-9)
        assert np.count_nonzero(ok) > 150

    def test_agrees_with_scan_oracle(self):
        rng = np.random.default_rng(23)
        _, M = random_form_one_stack(rng, 200)
        f1 = to_standard_form_one(M)
        f2 = to_standard_form_two(f1)
        compared = 0
        for i in np.flatnonzero(f2.failure == SolverFailure.NONE):
            ref = form_two_scan(f1.n[i], f1.m[i], f1.c[i], f1.cp[i])
            if ref is None:
                continue
            compared += 1
            for name in ("n1", "n2", "m1", "m2", "c1", "c2", "a0"):
                assert getattr(f2, name)[i] == pytest.approx(
                    ref[name], rel=1e-6, abs=1e-8), name
        assert compared > 100


def random_positive_stack(rng, count):
    A = np.array([rng.normal(size=(4, 4)) for _ in range(count)])
    return A @ A.swapaxes(1, 2) + 1.5 * np.eye(4)


class TestSymplecticSpectrum:
    def test_vacuum(self):
        nu1, nu2 = symplectic_eigenvalues(np.eye(4)[None])
        assert (nu1[0], nu2[0]) == (1.0, 1.0)

    def test_thermal_product(self):
        nu1, nu2 = symplectic_eigenvalues(np.diag([2.0, 2.0, 5.0, 5.0])[None])
        assert (nu1[0], nu2[0]) == pytest.approx((5.0, 2.0), rel=1e-12)

    def test_pure_squeezed_state(self):
        nu1, nu2 = symplectic_eigenvalues(tmsv(0.7)[None])
        assert (nu1[0], nu2[0]) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_matches_eigenvalues_of_omega_product(self):
        rng = np.random.default_rng(5)
        M = random_positive_stack(rng, 50)
        nu1, nu2 = symplectic_eigenvalues(M)
        for i in range(len(M)):
            ref = np.abs(np.linalg.eigvals(1j * OMEGA @ M[i]))
            ref = sorted(set(np.round(ref, 9)))
            assert sorted((nu1[i], nu2[i])) == pytest.approx(ref, rel=1e-7)

    def test_product_equals_root_determinant(self):
        rng = np.random.default_rng(6)
        M = random_positive_stack(rng, 50)
        nu1, nu2 = symplectic_eigenvalues(M)
        assert nu1 * nu2 == pytest.approx(np.sqrt(np.linalg.det(M)), rel=1e-9)


class TestEntropyAndPurity:
    """Entropy from the symplectic spectrum; a state of zero entropy is
    pure."""

    def test_vacuum_entropy_zero(self):
        assert entropy(np.eye(4)[None])[0] == 0.0

    def test_two_mode_squeezed_vacuum_is_pure(self):
        # symplectic eigenvalues land at 1 + O(1e-8), and the entropy
        # picks up an eps*log(eps) sliver from the roundoff
        assert entropy(tmsv(0.8)[None])[0] == pytest.approx(0.0, abs=1e-6)

    def test_thermal_value(self):
        # nu = 2: ((nu+1)/2) ln((nu+1)/2) - ((nu-1)/2) ln((nu-1)/2)
        expected = 1.5 * math.log(1.5) - 0.5 * math.log(0.5)
        assert entropy(2.0 * np.eye(2)[None])[0] == pytest.approx(expected, rel=1e-14)
        assert expected == pytest.approx(0.9547712524422623, rel=1e-15)

    def test_additive_over_product_states(self):
        M = np.diag([2.0, 2.0, 5.0, 5.0])[None]
        total = entropy(M)
        parts = entropy(M[:, :2, :2]) + entropy(M[:, 2:, 2:])
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
