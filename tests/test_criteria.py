"""Separability and classicality verdicts: variance test, mirror oracle,
positive-P test, and the agreement properties between them."""

import dataclasses
import math
import pickle

import numpy as np
import pytest

from gausscensus.criteria import (
    MIRROR,
    Verdict,
    classify,
    disagrees,
    format_disagreement,
    is_classical,
    is_separable_ppt,
    total_variance,
)
from gausscensus.states import (
    StandardFormI,
    StandardFormII,
    is_physical,
    to_standard_form_one,
    to_standard_form_two,
)

from gausscensus import criteria, montecarlo, states
from gausscensus.montecarlo import SamplerConfig
from gausscensus.rng import BLOCK
from gausscensus.states import SolverFailure
from gausscensus.tolerances import DEFAULT, Tolerances

from oracles import (
    CHAIN_ERRORS,
    CHAIN_SOLVER_ERRORS,
    STACK_CONFIGS,
    ChainFormI,
    ChainFormII,
    ComplexRootError,
    chain_classify,
    chain_failure,
    chain_form_one,
    chain_form_two,
    chain_is_separable_ppt,
    eigvalsh_is_classical,
    eigvalsh_is_physical,
    eigvalsh_is_ppt,
    form_one_matrix,
    materialised_candidates,
    random_local_symplectic,
    sample_matrix,
    sample_stream,
)

def tmsv(r: float) -> np.ndarray:
    ch, sh = math.cosh(2 * r), math.sinh(2 * r)
    return form_one_matrix(ch, ch, sh, -sh)


def form_two(n1, n2, m1, m2, c1, c2, a0) -> StandardFormII:
    return StandardFormII(
        n1=n1, n2=n2, m1=m1, m2=m2, c1=c1, c2=c2, a0=a0, r1=1.0, r2=1.0
    )


def sample_pd_matrices(rng, count, k=3.0, l=1.5, batch=20000):
    pairs = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    out = []
    while len(out) < count:
        u = rng.random((batch, 10))
        M = np.zeros((batch, 4, 4))
        for j in range(4):
            M[:, j, j] = k * u[:, j]
        off = -l + 2.0 * l * u[:, 4:]
        for t, (i, j) in enumerate(pairs):
            M[:, i, j] = off[:, t]
            M[:, j, i] = off[:, t]
        w = np.linalg.eigvalsh(M)
        out.extend(M[w[:, 0] > 0.0])
    return np.array(out[:count])


class TestTotalVariance:
    def test_product_thermal(self):
        rep = total_variance(form_two(2, 2, 2, 2, 0.0, 0.0, 1.0))
        assert rep.total_variance == pytest.approx(4.0, abs=1e-14)
        assert rep.separability_bound == pytest.approx(2.0, abs=1e-14)

    def test_squeezed_vacuum_closed_form(self):
        # reduced form of the r = 0.5 two-mode squeezed vacuum
        r = 0.5
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        rep = total_variance(form_two(ch, ch, ch, ch, sh, -sh, 1.0))
        assert rep.total_variance == pytest.approx(2 * math.exp(-2 * r), rel=1e-14)
        assert rep.separability_bound == pytest.approx(2.0)

    def test_vacuum_boundary(self):
        rep = total_variance(form_two(1, 1, 1, 1, 0.0, 0.0, 1.0))
        assert rep.total_variance == pytest.approx(2.0, abs=1e-14)
        assert rep.separability_bound == pytest.approx(2.0, abs=1e-14)


class TestSeparableDuan:
    """The variance criterion as classify applies it: separable iff the
    total variance reaches a0^2 + 1/a0^2."""

    def test_product_thermal_separable(self):
        v = classify(2.0 * np.eye(4)[None])
        assert v.separable[0]
        # total variance 4 against the bound 2, up to the form-II solve
        assert v.margin_sep[0] == pytest.approx(2.0, rel=1e-6)

    def test_squeezed_vacuum_entangled(self):
        r = 0.5
        v = classify(tmsv(r)[None])
        assert v.physical[0] and not v.separable[0]
        assert v.margin_sep[0] == pytest.approx(2 * math.exp(-2 * r) - 2.0, rel=1e-9)

    def test_vacuum_boundary_counts_separable(self):
        v = classify(np.eye(4)[None])
        assert v.separable[0]
        assert v.margin_sep[0] == pytest.approx(0.0, abs=1e-12)


class TestSeparablePpt:
    def test_twice_identity(self):
        ok, margin = is_separable_ppt(2.0 * np.eye(4)[None])
        assert ok[0]
        assert margin[0] == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_vacuum(self):
        ok, margin = is_separable_ppt(tmsv(0.5)[None])
        assert not ok[0]
        assert margin[0] == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-10)

    def test_vacuum_boundary(self):
        ok, margin = is_separable_ppt(np.eye(4)[None])
        assert ok[0]
        assert margin[0] == pytest.approx(0.0, abs=1e-12)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(11)
        M = sample_pd_matrices(rng, 4000)
        ok, margin = is_separable_ppt(M)
        clear = np.abs(margin) >= 1e-4
        moved = []
        for Mi in M[clear]:
            S = random_local_symplectic(rng)
            moved.append(S @ Mi @ S.T)
        ok2, _ = is_separable_ppt(np.array(moved))
        assert np.array_equal(ok2, ok[clear])
        assert len(moved) >= 1000

    def test_mirror_is_an_involution(self):
        assert np.array_equal(MIRROR @ MIRROR, np.eye(4))


class TestClassical:
    def test_twice_identity(self):
        assert is_classical(2.0 * np.eye(4)[None])[0]

    def test_vacuum_strictly_excluded(self):
        assert not is_classical(np.eye(4)[None])[0]

    def test_squeezed_vacuum_never_classical(self):
        assert not is_classical(np.array([tmsv(r) for r in (0.01, 0.5, 2.0)])).any()


class TestClassify:
    def test_classical_implies_separable(self):
        rng = np.random.default_rng(23)
        v = classify(sample_pd_matrices(rng, 3000))
        solved = v.failure == 0
        assert v.separable[v.classical].all()
        assert np.count_nonzero(v.classical & solved) > 50

    def test_agreement_with_mirror_oracle(self):
        rng = np.random.default_rng(29)
        v = classify(sample_pd_matrices(rng, 6000))
        assert not disagrees(v).any()
        assert np.count_nonzero(v.physical & (v.failure == 0)) > 500

    def test_mode_swap_leaves_verdicts(self):
        rng = np.random.default_rng(31)
        perm = [2, 3, 0, 1]
        M = sample_pd_matrices(rng, 400)
        swapped = M[:, perm][:, :, perm]
        v1 = classify(M)
        v2 = classify(swapped)
        solved = (v1.failure == 0) & (v2.failure == 0)
        for name in ("physical", "separable", "classical"):
            assert np.array_equal(getattr(v1, name)[solved], getattr(v2, name)[solved]), name
        # classify keeps a mirror margin only where the closed-form mirror
        # test leaves the variance verdict unconfirmed, and the leading
        # minors it reads change under the swap; the margins themselves
        # do not.
        kept = solved & ~np.isnan(v1.margin_ppt) & ~np.isnan(v2.margin_ppt)
        assert v1.margin_ppt[kept] == pytest.approx(v2.margin_ppt[kept], abs=1e-8)
        ppt1, margin1 = is_separable_ppt(M)
        ppt2, margin2 = is_separable_ppt(swapped)
        assert margin1[solved] == pytest.approx(margin2[solved], abs=1e-8)
        for v, ppt in ((v1, ppt1), (v2, ppt2)):
            confirmed = v.physical & (v.failure == 0) & np.isnan(v.margin_ppt)
            assert np.array_equal(v.separable[confirmed], ppt[confirmed])
        assert np.count_nonzero(solved) >= 100

    def test_unphysical_gate_gives_nan_margin(self):
        v = classify(0.5 * np.eye(4)[None])
        assert not v.physical[0]
        assert math.isnan(v.margin_sep[0])

    def test_physical_is_exact_uncertainty_test(self):
        rng = np.random.default_rng(43)
        M = sample_pd_matrices(rng, 2000)
        v = classify(M)
        assert np.array_equal(v.physical, is_physical(M))
        solved = v.physical[v.failure == 0]
        assert min(np.count_nonzero(solved), np.count_nonzero(~solved)) > 100

    def test_local_squeezed_vacua_on_the_boundary(self):
        # det A of a squeezed vacuum rounds to 1 - 1e-16 for r = 0.3.
        r = 0.3
        M = np.diag([math.exp(2 * r), math.exp(-2 * r), math.exp(r), math.exp(-r)])[None]
        assert to_standard_form_one(M).n[0] < 1.0
        v = classify(M)
        assert v.physical[0]
        assert v.separable[0]
        assert not v.classical[0]

    def test_unphysical_sample_passing_variance_floor_left_out(self):
        # Sample 68557 of seed 20250819 at k=10, l=5.  Its cross terms
        # have opposite signs, so it clears the variance floor
        # |a0^2 - 1/a0^2| that a proxy physicality test would use, yet
        # min eig(M + i*Omega) is -0.0385 (smaller symplectic
        # eigenvalue 0.794): the state violates the uncertainty relation.
        M = np.array([
            [3.6745021778030762, 1.6460957192937711, 3.3630209612543354, 2.5337829093378286],
            [1.6460957192937711, 5.7155656526664327, 3.8317533997148683, -2.6319955652936153],
            [3.3630209612543354, 3.8317533997148683, 5.0791679654979447, 0.90328942450449734],
            [2.5337829093378286, -2.6319955652936153, 0.90328942450449734, 4.900919053821867],
        ])
        cfg = SamplerConfig(k=10.0, l=5.0, samples=1, seed=20250819)
        assert np.array_equal(sample_matrix(cfg, sample_stream(20250819, 68557)), M)
        f1 = to_standard_form_one(M[None])
        assert f1.c[0] * f1.cp[0] < 0.0
        assert not is_physical(M[None])[0]
        v = classify(M[None])
        assert not v.physical[0]
        assert not v.separable[0]
        assert not v.classical[0]

    def test_margin_sign_matches_verdict(self):
        rng = np.random.default_rng(37)
        v = classify(sample_pd_matrices(rng, 500))
        solved = v.physical & (v.failure == 0)
        assert (v.margin_sep[solved & v.separable] >= -1e-12).all()
        assert (v.margin_sep[solved & ~v.separable] < 0).all()


class TestDisagreementFormat:
    def test_round_trip_17_digits(self):
        rng = np.random.default_rng(41)
        M = rng.normal(size=(4, 4))
        M = 0.5 * (M + M.T)
        text = format_disagreement(M, -1.25e-3, 4.5e-7)
        lines = text.strip().split("\n")
        assert len(lines) == 6
        back = np.array([[float(x) for x in line.split()] for line in lines[:4]])
        assert np.array_equal(back, M)
        assert lines[4].startswith("margin_sep ")
        assert float(lines[4].split()[1]) == -1.25e-3
        assert float(lines[5].split()[1]) == 4.5e-7

    def test_disagrees_needs_both_margins_outside_band(self):
        # Lane 1: both tests say entangled.
        v = Verdict(
            physical=np.array([True, True, True]),
            separable=np.array([True, False, True]),
            classical=np.zeros(3, dtype=bool),
            margin_sep=np.array([5e-10, -5e-4, 5e-4]),
            margin_ppt=np.full(3, -2.0e-4),
            failure=np.zeros(3, dtype=np.int8),
        )
        assert list(disagrees(v)) == [False, False, True]

    def test_error_survives_pickle(self):
        # A census block raises the error in its pool worker, and the
        # pool hands it to the fold by pickle.
        rng = np.random.default_rng(43)
        M = rng.normal(size=(4, 4))
        exc = criteria.OracleDisagreementError(M, -1.25e-3, 4.5e-7)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is criteria.OracleDisagreementError
        assert back.matrix.tobytes() == M.tobytes()
        assert (back.margin_sep, back.margin_ppt) == (-1.25e-3, 4.5e-7)
        assert str(back) == str(exc)


def block_candidates(k, l, seed=11):
    return materialised_candidates(seed, 0, BLOCK, float(k), float(l))[1]


def chain_lane(M):
    """The reference chain's verdict on one matrix as (failure, fields).

    A solver error is mapped to its SolverFailure code; the fields of a
    failed lane are those the stacked verdict gives it."""
    try:
        v = chain_classify(M)
    except CHAIN_SOLVER_ERRORS as exc:
        return chain_failure(exc), (True, False, False, math.nan, chain_is_separable_ppt(M)[1])
    return 0, (v.physical, v.separable, v.classical, v.margin_sep, v.margin_ppt)


def same_bits(a, b):
    return np.array_equal(np.asarray(a), np.asarray(b), equal_nan=True)


@pytest.mark.filterwarnings("error")
class TestStackedClassify:
    @pytest.fixture(scope="class")
    def blocks(self):
        return {kl: block_candidates(*kl) for kl in STACK_CONFIGS}

    @pytest.mark.parametrize("kl", STACK_CONFIGS)
    def test_block_matches_per_sample_chain(self, blocks, kl):
        M = blocks[kl]
        v = classify(M)
        failures, rows = zip(*(chain_lane(Mi) for Mi in M))
        chain = Verdict(*map(np.array, zip(*rows)), failure=np.array(failures))
        for f in dataclasses.fields(Verdict):
            if f.name != "margin_ppt":
                assert same_bits(getattr(v, f.name), getattr(chain, f.name)), f.name
        # classify keeps the mirror margin only where disagrees could flag
        # the lane, and NaN there never flags.
        kept = ~np.isnan(v.margin_ppt)
        assert same_bits(v.margin_ppt[kept], chain.margin_ppt[kept])
        assert same_bits(disagrees(v), disagrees(chain))
        if kl == (500, 250):
            assert np.count_nonzero(v.failure == SolverFailure.LINE_SEARCH_STALLED) > 1000

    @pytest.mark.parametrize("kl", STACK_CONFIGS)
    def test_form_two_matches_per_sample_chain(self, blocks, kl):
        # The verdict reads form II only through margin_sep.  Here every
        # number field and the failure code of each physical lane are held
        # to the chain's solve of the same form I, clamped as classify
        # clamps it; a form-I failure stands in both.
        M = blocks[kl]
        f1 = to_standard_form_one(M[is_physical(M)])
        f1 = dataclasses.replace(f1, n=np.maximum(f1.n, 1.0), m=np.maximum(f1.m, 1.0))
        f2 = to_standard_form_two(f1)
        names = [f.name for f in dataclasses.fields(ChainFormII)]
        want = np.full((len(names), f1.n.size), math.nan)
        failure = f1.failure.copy()
        for i in np.flatnonzero(failure == SolverFailure.NONE):
            try:
                chain = chain_form_two(ChainFormI(*(float(x[i]) for x in (f1.n, f1.m, f1.c, f1.cp))))
            except CHAIN_SOLVER_ERRORS as exc:
                failure[i] = chain_failure(exc)
            else:
                want[:, i] = [getattr(chain, name) for name in names]
        assert same_bits(f2.failure, failure)
        for name, column in zip(names, want):
            assert same_bits(getattr(f2, name), column), name
        assert np.count_nonzero(failure == SolverFailure.NONE) > 100

    def test_verdict_does_not_depend_on_the_stack(self, blocks):
        # The whole stack is one classify pass; a lane classified alone
        # gets the same verdict bit for bit.  Lanes 9000-9400 hold the
        # end of the k=10 block and the start of the k=500 block, with
        # its stalled lanes.
        M = np.concatenate([blocks[kl] for kl in STACK_CONFIGS])
        whole = classify(M)
        alone = [classify(M[i:i + 1]) for i in range(9000, 9400)]
        assert sum(int(v.failure[0] != 0) for v in alone) > 50
        for f in dataclasses.fields(whole):
            lanes = np.concatenate([getattr(v, f.name) for v in alone])
            assert same_bits(lanes, getattr(whole, f.name)[9000:9400]), f.name

    def test_empty_stack(self):
        v = classify(np.zeros((0, 4, 4)))
        assert v.physical.shape == v.failure.shape == (0,)
        assert not disagrees(v).any()

    def _raised(self, fn, *args):
        try:
            fn(*args)
        except Exception as exc:  # noqa: BLE001 - the type is what is compared
            return type(exc), str(exc)
        return None

    def test_stalled_lane_raises_as_before(self, blocks):
        # The chain raises where the stacked forms mark the lane.
        M = blocks[(500, 250)]
        v = classify(M)
        i = int(np.flatnonzero(v.failure == SolverFailure.LINE_SEARCH_STALLED)[0])
        want = CHAIN_ERRORS[SolverFailure.LINE_SEARCH_STALLED]
        assert self._raised(chain_classify, M[i]) == want
        assert list(classify(M[i:i + 1]).failure) == [SolverFailure.LINE_SEARCH_STALLED]
        f1 = to_standard_form_one(M[i:i + 1])
        assert list(to_standard_form_two(f1).failure) == [SolverFailure.LINE_SEARCH_STALLED]
        chain_f1 = ChainFormI(*(float(x[0]) for x in (f1.n, f1.m, f1.c, f1.cp)))
        assert self._raised(chain_form_two, chain_f1) == want

    def test_degenerate_input_raises_as_before(self):
        want = CHAIN_ERRORS[SolverFailure.DEGENERATE]
        assert self._raised(chain_form_two, ChainFormI(1.0, 1.0, 0.3, 0.1)) == want
        stacked = to_standard_form_two(StandardFormI(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.3, 0.3]),
            np.array([0.1, 0.1])))
        assert list(stacked.failure) == [SolverFailure.DEGENERATE, SolverFailure.NONE]
        assert math.isnan(stacked.a0[0]) and stacked.a0[1] > 0.0

    def test_complex_root_input_raises_as_before(self):
        # Diagonal 1e6 and cross terms +-0.1: det M loses the cross terms
        # to rounding and the discriminant comes out negative.
        M = form_one_matrix(1e6, 1e6, 0.1, -0.1)
        for fn in (chain_form_one, chain_classify):
            with pytest.raises(ComplexRootError):
                fn(M)
        f1 = to_standard_form_one(np.stack([M, np.eye(4)]))
        assert list(f1.failure) == [SolverFailure.COMPLEX_ROOT, SolverFailure.NONE]
        v = classify(np.stack([M, np.eye(4)]))
        assert list(v.failure) == [SolverFailure.COMPLEX_ROOT, SolverFailure.NONE]
        assert list(v.physical) == [True, True]
        assert not v.separable[0] and v.separable[1]


# The three eigenvalue verdicts, each with its eigvalsh reference.
VERDICTS = {
    "physical": (is_physical, eigvalsh_is_physical),
    "ppt": (criteria._is_ppt, eigvalsh_is_ppt),
    "classical": (is_classical, eigvalsh_is_classical),
}

# Box bounds from (1, 1) to (5000, 2500).
VERDICT_BOXES = [(1, 1), (3, 2), (10, 5), (15, 15), (30, 20), (500, 250), (1000, 1000),
                 (5000, 2500)]


@pytest.fixture
def eigvalsh_lanes(monkeypatch):
    """The number of matrices each np.linalg.eigvalsh call gets."""
    lanes = []
    real = np.linalg.eigvalsh

    def spy(a, *args, **kwargs):
        lanes.append(len(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", spy)
    return lanes


def two_mode_thermal(nu1, nu2, r, rng):
    """Local symplectics and a two-mode squeeze r of the thermal state
    diag(nu1, nu1, nu2, nu2): symplectic eigenvalues nu1 and nu2."""
    ch, sh = math.cosh(r), math.sinh(r)
    S = np.array([[ch, 0, sh, 0], [0, ch, 0, -sh], [sh, 0, ch, 0], [0, -sh, 0, ch]])
    L = np.zeros((4, 4))
    L[:2, :2] = random_local_symplectic(rng)[:2, :2]
    L[2:, 2:] = random_local_symplectic(rng)[2:, 2:]
    T = L @ S
    M = T @ np.diag([nu1, nu1, nu2, nu2]) @ T.T
    return 0.5 * (M + M.T)


@pytest.mark.filterwarnings("error")
class TestClosedFormVerdicts:
    """The closed-form verdicts equal the eigvalsh tests bit for bit, and
    call eigvalsh only for lanes in their rounding band."""

    @pytest.mark.parametrize("kl", VERDICT_BOXES)
    def test_census_candidates(self, kl):
        _, M, _ = materialised_candidates(17, 0, 20000, float(kl[0]), float(kl[1]))
        assert len(M) > 100
        for name, (verdict, reference) in VERDICTS.items():
            assert np.array_equal(verdict(M), reference(M)), name

    def test_indefinite_and_negative_matrices(self):
        # Uniform symmetric stacks, most of them not positive definite,
        # and some negative definite: the minors of M + i*Omega decide
        # without assuming M > 0.
        rng = np.random.default_rng(5)
        X = rng.uniform(-3.0, 3.0, size=(20000, 4, 4))
        M = np.concatenate([X + X.swapaxes(1, 2), -4.0 * np.eye(4)[None],
                            np.diag([2.0, 2.0, 2.0, 2.0])[None] + 4.0 * np.eye(4)[[2, 3, 0, 1]]])
        for name, (verdict, reference) in VERDICTS.items():
            assert np.array_equal(verdict(M), reference(M)), name

    def test_other_thresholds(self):
        # Positive and negative thresholds exercise both signs of t +- d.
        tol = Tolerances(physical_min_eig=0.05, ppt_min_eig=-0.05, classical_min_eig=0.2)
        _, M, _ = materialised_candidates(19, 0, 40000, 10.0, 5.0)
        for name, (verdict, reference) in VERDICTS.items():
            assert np.array_equal(verdict(M, tol), reference(M, tol)), name
            assert np.array_equal(verdict(-M, tol), reference(-M, tol)), name

    def test_boundary_lanes_take_eigvalsh(self, eigvalsh_lanes):
        rng = np.random.default_rng(9)
        # Two-mode squeezed vacua sit on the physical boundary (nu2 = 1).
        vacua = [tmsv(r) for r in (0.1, 0.7, 1.5)]
        # nu2 = 1 +- 1e-11, on either side of it, and 1 - 1e-9, just past
        # the -1e-10 slack; mirror images put the same states on the
        # mirror test's boundary.
        gaps = (1e-11, -1e-11, -1e-9)
        near = [two_mode_thermal(2.0, 1.0 + gap, 0.0, rng) for gap in gaps for _ in range(3)]
        near += [two_mode_thermal(1.5, 1.0 + gap, 0.4, rng) for gap in gaps for _ in range(3)]
        mirrored = [m * criteria._MIRROR_SIGNS for m in near]
        # min eig(M - I) near 1e-12, the positive-P threshold.
        Q = np.linalg.qr(rng.normal(size=(6, 4, 4)))[0]
        shifts = np.array([1e-12, 1.5e-12, 5e-13, 1e-12, 2e-12, 0.0])
        classical = Q @ (np.eye(4) + shifts[:, None, None] * np.diag([1.0, 0, 0, 0])
                         + np.diag([0.0, 1.0, 2.0, 3.0])) @ Q.swapaxes(1, 2)
        classical = 0.5 * (classical + classical.swapaxes(1, 2))
        cases = {
            "physical": np.array(vacua + near),
            "ppt": np.array(mirrored),
            "classical": classical,
        }
        for name, M in cases.items():
            verdict, reference = VERDICTS[name]
            want = reference(M)
            eigvalsh_lanes.clear()
            assert np.array_equal(verdict(M), want), name
            assert sum(eigvalsh_lanes) == len(M), name
        # Both outcomes occur on the boundary lanes.
        for name in ("physical", "classical"):
            M = cases[name] if name == "classical" else np.array(near)
            assert len(set(VERDICTS[name][1](M).tolist())) == 2, name

    def test_entry_scales_outside_the_window(self, eigvalsh_lanes):
        # Entries above 1e60 could overflow the closed forms: those lanes
        # take eigvalsh, and the others stay in closed form.
        _, M, _ = materialised_candidates(23, 0, 5000, 10.0, 5.0)
        huge = M[:7] * 1e61
        mixed = np.concatenate([M, huge, M[:3] * 1e-200, np.full((1, 4, 4), np.nan)])
        for name, (verdict, reference) in VERDICTS.items():
            with np.errstate(invalid="ignore"):
                want = reference(mixed[:-1])
            eigvalsh_lanes.clear()
            assert np.array_equal(verdict(mixed[:-1]), want), name
            assert sum(eigvalsh_lanes) == len(huge), name
        # A NaN lane goes to eigvalsh too, which refuses it as before.
        with pytest.raises(np.linalg.LinAlgError):
            is_physical(mixed[-2:])

    def test_census_block_never_calls_eigvalsh(self, eigvalsh_lanes):
        # A k = l = 15 census block (seed 7): every verdict in closed form.
        cfg = montecarlo.SamplerConfig(k=15.0, l=15.0, samples=BLOCK, seed=7)
        census, _ = montecarlo._census_block(cfg, 0, BLOCK, ())
        assert census.separable > 0 and census.accepted > census.separable
        assert eigvalsh_lanes == []
