"""Prior measures: kernel discretization and monotone-metric volume
elements with their robust estimators."""

import math

import numpy as np
import pytest

from gausscensus import measures
from gausscensus.measures import (
    METRIC_KINDS,
    SampleDiscarded,
    SingularBlockError,
    discretize,
    log_volume_element,
    random_grid,
    regular_grid,
    robust_volume_multi,
    schroedinger_kernel,
)

from oracles import (
    kernel_by_quadrature,
    kernel_on_grid,
    log_volume_of_spectrum,
    random_physical_matrix,
    volumes_on_grids,
)


class _QueuedRng:
    """Stand-in generator feeding predetermined uniform draws."""

    def __init__(self, batches):
        self.batches = list(batches)

    def uniform(self, lo, hi, size):
        batch = np.asarray(self.batches.pop(0), dtype=float)
        assert batch.size == size
        return batch


class TestGrids:
    def test_regular_grid_centered_unit_spacing(self):
        assert np.array_equal(regular_grid(5), [-2.0, -1.0, 0.0, 1.0, 2.0])

    def test_regular_grid_rejects_even_count(self):
        with pytest.raises(ValueError):
            regular_grid(4)

    def test_random_grid_sorted_within_range(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_grid(5, rng)
            assert np.all(np.diff(c) > 0)
            assert c.min() >= -2.0 and c.max() <= 2.0

    def test_random_grid_redraws_coincident_points(self):
        bad = [0.0, 0.0, 0.5, 1.0, 1.5]
        good = [-1.5, -0.5, 0.0, 0.5, 1.5]
        g = random_grid(5, _QueuedRng([bad, good]))
        assert np.array_equal(g, sorted(good))

    def test_random_grid_gives_up_eventually(self):
        rng = _QueuedRng([[0.0, 0.0, 0.5, 1.0, 1.5]] * 1000)
        with pytest.raises(RuntimeError):
            random_grid(5, rng)


class TestKernel:
    def test_vacuum_peak_is_one(self):
        z = schroedinger_kernel(np.eye(4), np.zeros(2), np.zeros(2))
        assert z == pytest.approx(1.0 + 0.0j, abs=1e-15)

    def test_hermitian_symmetry(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            M = random_physical_matrix(rng)
            x = rng.normal(size=2)
            xp = rng.normal(size=2)
            a = schroedinger_kernel(M, x, xp)
            b = schroedinger_kernel(M, xp, x)
            assert a == pytest.approx(np.conj(b), rel=1e-12)

    def test_matches_phase_space_quadrature(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            M = random_physical_matrix(rng)
            for _ in range(3):
                x = rng.uniform(-1.5, 1.5, size=2)
                xp = rng.uniform(-1.5, 1.5, size=2)
                got = schroedinger_kernel(M, x, xp)
                want = kernel_by_quadrature(M, x, xp)
                assert got == pytest.approx(want, abs=5e-9)

    def test_refuses_a_one_mode_matrix(self):
        with pytest.raises(ValueError, match=r"expected a stack of shape \(S, 4, 4\)"):
            schroedinger_kernel(np.array([[2.0, 0.3], [0.3, 1.5]]), np.zeros(1), np.zeros(1))


class TestDiscretize:
    def test_entries_match_scalar_kernel(self):
        # Every entry a stack sets, the lower triangle, against the
        # kernel at its point pair.
        M = 2.0 * np.eye(4)
        M[0, 2] = M[2, 0] = 0.4
        c = regular_grid(3)
        kern = discretize(M[None], c[None])
        pts = [np.array((a, b)) for a in c for b in c]
        for row, col in zip(*np.tril_indices(len(pts))):
            want = schroedinger_kernel(M, pts[row], pts[col])
            assert kern.gamma[0, row, col] == pytest.approx(want, rel=1e-13)

    def test_spectrum_normalized_and_positive(self):
        kern = discretize(2.0 * np.eye(4)[None], regular_grid(3)[None])
        lam = kern.eigenvalues[0]
        assert kern.passed_floor[0]
        assert lam.sum() == pytest.approx(1.0, abs=1e-14)
        assert lam.min() > 0
        assert kern.log_det[0] == pytest.approx(np.log(lam).sum(), rel=1e-12)

    def test_pure_state_rejected(self):
        M = np.stack([np.eye(4), 2.0 * np.eye(4)])
        kern = discretize(M, np.stack([regular_grid(5)] * 2))
        assert list(kern.passed_floor) == [False, True]
        assert math.isnan(kern.log_det[0]) and np.isfinite(kern.log_det[1])


def _stack_with_grids(seed: int, grids: int = 3):
    # Physical matrices, the pure vacuum (whose kernels fall to the
    # spectrum floor) in the middle, and random 5-point grids for each:
    # coordinates of shape (matrices, grids, 5).
    rng = np.random.default_rng(seed)
    matrices = [random_physical_matrix(rng) for _ in range(4)]
    matrices.insert(2, np.eye(4))
    coords = np.array([
        [random_grid(5, rng) for _ in range(grids)] for _ in matrices
    ])
    return np.array(matrices), coords


class TestStackedKernels:
    """Stacked kernels against the per-grid reference.

    The reference evaluates every lattice entry with np.einsum, mirrors
    the lower triangle by conjugation and diagonalizes one kernel at a
    time; the package must agree with it bit for bit on the lower
    triangle of gamma (all that it sets) and on each kernel's spectrum,
    and a stack of one must give the same kernel as its lane in a
    larger stack.
    """

    def _assert_matches_reference(self, M, coords, kern, s):
        # kern is the stack of M on coords, one (m,) grid per matrix.
        gamma, lam, log_det = kernel_on_grid(M[s], coords[s])
        lower = np.tril_indices(len(gamma))
        assert np.array_equal(kern.gamma[s][lower], gamma[lower])
        one = discretize(M[s:s + 1], coords[s:s + 1])
        assert np.array_equal(one.gamma[0][lower], gamma[lower])
        assert one.passed_floor[0] == kern.passed_floor[s]
        if lam is None:
            assert not kern.passed_floor[s]
            assert math.isnan(kern.log_det[s]) and math.isnan(one.log_det[0])
            return False
        assert kern.passed_floor[s]
        assert np.array_equal(kern.eigenvalues[s], lam)
        assert kern.log_det[s] == log_det
        assert np.array_equal(one.eigenvalues[0], lam)
        assert one.log_det[0] == log_det
        return True

    def test_two_mode_kernels_match_reference(self):
        M, coords = _stack_with_grids(3)
        passed = []
        for g in range(3):
            kern = discretize(M, coords[:, g])
            assert kern.eigenvalues.shape == (5, 25)
            assert kern.gamma.shape == (5, 25, 25)
            passed.append([
                self._assert_matches_reference(M, coords[:, g], kern, s) for s in range(5)
            ])
        assert not any(row[2] for row in passed)
        assert sum(map(sum, passed)) >= 5

    @pytest.mark.parametrize("m", [3, 5, 7])
    def test_regular_and_one_mode_kernels_match_reference(self, m):
        rng = np.random.default_rng(29 + m)
        M = np.array([random_physical_matrix(rng) for _ in range(3)])
        coords = np.broadcast_to(regular_grid(m), (3, m))
        kern = discretize(M, coords)
        for s in range(3):
            assert self._assert_matches_reference(M, coords, kern, s)

    def test_stacked_spectra_match_reference(self):
        rng = np.random.default_rng(23)
        lam = rng.dirichlet(np.ones(25), size=(4, 3))
        for kind in METRIC_KINDS:
            stacked = log_volume_element(lam, kind)
            assert stacked.shape == (4, 3)
            for s in range(4):
                for g in range(3):
                    want = log_volume_of_spectrum(lam[s, g], kind)
                    assert stacked[s, g] == want
                    assert log_volume_element(lam[s, g], kind) == want

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk", [1, 2, 16, 1000])
    def test_volume_logs_match_reference_at_any_chunk(self, monkeypatch, chunk):
        M, coords = _stack_with_grids(5)
        want = {s: volumes_on_grids(M[s], coords[s], METRIC_KINDS) for s in range(len(M))}
        assert 0 < sum(v is None for v in want.values()) < len(M)
        monkeypatch.setattr(measures, "KERNEL_CHUNK", chunk)
        discarded, logs = measures._volume_logs(M, coords, METRIC_KINDS)
        assert list(discarded) == [want[s] is None for s in range(len(M))]
        for s, ref in want.items():
            if ref is None:
                assert all(np.isnan(logs[kind][s]).all() for kind in METRIC_KINDS)
                with pytest.raises(SampleDiscarded):
                    robust_volume_multi(
                        M[s], _QueuedRng(coords[s]), metric_kinds=METRIC_KINDS, n_grids=3
                    )
                continue
            est = robust_volume_multi(
                M[s], _QueuedRng(coords[s]), metric_kinds=METRIC_KINDS, n_grids=3
            )
            for kind in METRIC_KINDS:
                values, median, trimmed = ref[kind]
                assert np.array_equal(logs[kind][s], values)
                assert np.array_equal(est[kind].log_volumes, values)
                assert (est[kind].median, est[kind].trimmed_mean) == (median, trimmed)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk", [1, 2, 16, 1000])
    def test_sample_rejected_at_its_last_grid_is_discarded(self, monkeypatch, chunk):
        # Sample 1 passes grids 0-3, so its log volumes there are taken
        # before its last grid, with two points 1e-6 apart, rejects it.
        M, coords = _stack_with_grids(7, grids=5)
        coords[1, 4] = [-1.5, -0.5, 0.3, 0.3 + 1e-6, 1.2]
        rejected = [kernel_on_grid(M[1], c)[1] is None for c in coords[1]]
        assert rejected == [False, False, False, False, True]
        want = {s: volumes_on_grids(M[s], coords[s], METRIC_KINDS) for s in range(len(M))}
        monkeypatch.setattr(measures, "KERNEL_CHUNK", chunk)
        discarded, logs = measures._volume_logs(M, coords, METRIC_KINDS)
        assert list(discarded) == [want[s] is None for s in range(len(M))]
        assert discarded[1] and not discarded.all()
        for s, ref in want.items():
            for kind in METRIC_KINDS:
                if ref is None:
                    assert np.isnan(logs[kind][s]).all()
                else:
                    assert np.array_equal(logs[kind][s], ref[kind][0])

    def test_singular_momentum_block_raises(self):
        # The inverse's momentum block diag(1, 1e-15) falls below the
        # relative cutoff of 1e-14.
        M = np.diag([1.0, 1.0, 1.0, 1e15])
        coords = regular_grid(3)
        with pytest.raises(SingularBlockError):
            discretize(M[None], coords[None])
        with pytest.raises(SingularBlockError):
            schroedinger_kernel(M, np.zeros(2), np.zeros(2))
        assert schroedinger_kernel(np.diag([1.0, 1.0, 1.0, 1e13]), np.zeros(2), np.zeros(2)) == 1


class TestVolumeElement:
    def test_equal_halves_bures(self):
        assert log_volume_element(np.array([0.5, 0.5]), "bures") == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_equal_halves_kubo_mori_limit(self):
        assert log_volume_element(np.array([0.5, 0.5]), "kubo_mori") == pytest.approx(
            math.log(2.0), rel=1e-14
        )

    def test_three_quarters_one_quarter_bures(self):
        got = log_volume_element(np.array([0.75, 0.25]), "bures")
        assert got == pytest.approx(0.5 * math.log(16.0 / 3.0), rel=1e-14)

    def test_equal_halves_maximal(self):
        got = log_volume_element(np.array([0.5, 0.5]), "maximal")
        assert got == pytest.approx(math.log(8.0), rel=1e-14)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            log_volume_element(np.array([0.5, 0.5]), "euclidean")

    def test_permutation_invariance(self):
        rng = np.random.default_rng(17)
        lam = rng.dirichlet(np.ones(9))
        for kind in METRIC_KINDS:
            a = log_volume_element(lam, kind)
            b = log_volume_element(rng.permutation(lam), kind)
            assert a == pytest.approx(b, rel=1e-12)

    def test_monotone_ordering_on_random_spectra(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            lam = rng.dirichlet(np.ones(25))
            vb = log_volume_element(lam, "bures")
            vk = log_volume_element(lam, "kubo_mori")
            vm = log_volume_element(lam, "maximal")
            assert vb <= vk + 1e-9 * abs(vk)
            assert vk <= vm + 1e-9 * abs(vm)

    def test_accepts_kernel_matrix(self):
        kern = discretize(2.0 * np.eye(4)[None], regular_grid(3)[None])
        a = log_volume_element(kern, "bures")
        b = log_volume_element(kern.eigenvalues, "bures")
        assert a.shape == (1,)
        assert a == b


class TestRobustVolume:
    def test_median_and_trimmed_mean_of_five(self):
        rng = np.random.default_rng(41)
        M = np.diag([12.0, 9.0, 10.0, 8.0])
        M[0, 2] = M[2, 0] = 1.5
        est = robust_volume_multi(M, rng)["bures"]
        v = np.sort(est.log_volumes)
        assert len(v) == 5
        assert est.median == pytest.approx(v[2], rel=1e-14)
        assert est.trimmed_mean == pytest.approx(v[1:4].mean(), rel=1e-14)

    def test_multi_shares_grids_across_kinds(self):
        rng = np.random.default_rng(29)
        M = np.diag([12.0, 9.0, 10.0, 8.0])
        M[0, 2] = M[2, 0] = 1.5
        M[1, 3] = M[3, 1] = -1.0
        out = robust_volume_multi(M, rng, metric_kinds=METRIC_KINDS)
        assert set(out) == set(METRIC_KINDS)
        for kind in METRIC_KINDS:
            assert out[kind].metric_kind == kind
            assert np.isfinite(out[kind].log_volumes).all()
        assert np.all(out["bures"].log_volumes <= out["kubo_mori"].log_volumes + 1e-9)
        assert np.all(out["kubo_mori"].log_volumes <= out["maximal"].log_volumes + 1e-9)

    def test_pure_state_discards_sample(self):
        rng = np.random.default_rng(31)
        with pytest.raises(SampleDiscarded):
            robust_volume_multi(np.eye(4), rng)
