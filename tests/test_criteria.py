"""Separability and classicality verdicts: variance test, mirror oracle,
positive-P test, and the agreement properties between them."""

import dataclasses
import math

import numpy as np
import pytest

from gausscensus.criteria import (
    MIRROR,
    classify,
    disagrees,
    format_disagreement,
    is_classical,
    is_separable_duan,
    is_separable_ppt,
    passes_uncertainty_filter,
    total_variance,
)
from gausscensus.states import (
    ComplexRootError,
    DegenerateError,
    NoConvergenceError,
    StandardFormI,
    StandardFormII,
    is_physical,
    to_standard_form_one,
    to_standard_form_two,
)

from gausscensus import criteria
from gausscensus.montecarlo import SamplerConfig, sample_matrix
from gausscensus.rng import BLOCK, sample_stream
from gausscensus.states import SolverFailure

from oracles import (
    STACK_CONFIGS,
    ChainFormI,
    chain_classify,
    chain_form_one,
    chain_form_two,
    chain_is_separable_ppt,
    form_one_matrix,
    materialised_candidates,
    random_local_symplectic,
)

SOLVER_ERRORS = (NoConvergenceError, DegenerateError, ComplexRootError)


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
    return out[:count]


class TestTotalVariance:
    def test_product_thermal(self):
        rep = total_variance(form_two(2, 2, 2, 2, 0.0, 0.0, 1.0))
        assert rep.total_variance == pytest.approx(4.0, abs=1e-14)
        assert rep.uncertainty_bound == pytest.approx(0.0, abs=1e-14)
        assert rep.separability_bound == pytest.approx(2.0, abs=1e-14)

    def test_squeezed_vacuum_closed_form(self):
        # reduced form of the r = 0.5 two-mode squeezed vacuum
        r = 0.5
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        rep = total_variance(form_two(ch, ch, ch, ch, sh, -sh, 1.0))
        assert rep.total_variance == pytest.approx(2 * math.exp(-2 * r), rel=1e-14)
        assert rep.uncertainty_bound == 0.0
        assert rep.separability_bound == pytest.approx(2.0)

    def test_vacuum_boundary(self):
        rep = total_variance(form_two(1, 1, 1, 1, 0.0, 0.0, 1.0))
        assert rep.total_variance == pytest.approx(2.0, abs=1e-14)
        assert rep.separability_bound == pytest.approx(2.0, abs=1e-14)

    def test_equal_signs_raise_uncertainty_bound(self):
        rep = total_variance(form_two(2, 2, 3, 3, 0.5, 0.5, 1.2))
        a0sq = 1.2**2
        assert rep.uncertainty_bound == pytest.approx(a0sq + 1 / a0sq)
        assert rep.uncertainty_bound == rep.separability_bound

    def test_bound_ordering_always(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n1, n2, m1, m2 = 1.0 + rng.random(4) * 3
            c1, c2 = rng.normal(size=2)
            a0 = 0.5 + rng.random()
            rep = total_variance(form_two(n1, n2, m1, m2, c1, c2, a0))
            assert rep.separability_bound >= rep.uncertainty_bound >= 0.0


class TestUncertaintyFilter:
    def test_vacuum_passes(self):
        f1 = StandardFormI(n=1.0, m=1.0, c=0.0, cp=0.0)
        rep = total_variance(form_two(1, 1, 1, 1, 0.0, 0.0, 1.0))
        assert passes_uncertainty_filter(rep, f1)

    def test_sub_vacuum_mode_fails(self):
        f1 = StandardFormI(n=0.9, m=2.0, c=0.0, cp=0.0)
        rep = total_variance(form_two(0.9, 0.9, 2, 2, 0.0, 0.0, 1.0))
        assert not passes_uncertainty_filter(rep, f1)

    def test_squeezed_vacuum_passes_any_r(self):
        for r in (0.1, 0.5, 1.5, 3.0):
            M = tmsv(r)
            f1 = to_standard_form_one(M)
            ch, sh = math.cosh(2 * r), math.sinh(2 * r)
            rep = total_variance(form_two(ch, ch, ch, ch, sh, -sh, 1.0))
            assert passes_uncertainty_filter(rep, f1)


class TestSeparableDuan:
    def test_product_thermal_separable(self):
        assert is_separable_duan(total_variance(form_two(2, 2, 2, 2, 0, 0, 1.0)))

    def test_squeezed_vacuum_entangled(self):
        r = 0.5
        ch, sh = math.cosh(2 * r), math.sinh(2 * r)
        rep = total_variance(form_two(ch, ch, ch, ch, sh, -sh, 1.0))
        assert not is_separable_duan(rep)

    def test_vacuum_boundary_counts_separable(self):
        assert is_separable_duan(total_variance(form_two(1, 1, 1, 1, 0, 0, 1.0)))


class TestSeparablePpt:
    def test_twice_identity(self):
        ok, margin = is_separable_ppt(2.0 * np.eye(4))
        assert ok
        assert margin == pytest.approx(1.0, abs=1e-12)

    def test_squeezed_vacuum(self):
        ok, margin = is_separable_ppt(tmsv(0.5))
        assert not ok
        assert margin == pytest.approx(math.exp(-1.0) - 1.0, rel=1e-10)

    def test_vacuum_boundary(self):
        ok, margin = is_separable_ppt(np.eye(4))
        assert ok
        assert margin == pytest.approx(0.0, abs=1e-12)

    def test_local_symplectic_invariance(self):
        rng = np.random.default_rng(11)
        checked = 0
        for M in sample_pd_matrices(rng, 4000):
            ok, margin = is_separable_ppt(M)
            if abs(margin) < 1e-4:
                continue
            S = random_local_symplectic(rng)
            ok2, _ = is_separable_ppt(S @ M @ S.T)
            assert ok2 == ok
            checked += 1
        assert checked >= 1000

    def test_mirror_is_an_involution(self):
        assert np.array_equal(MIRROR @ MIRROR, np.eye(4))


class TestClassical:
    def test_twice_identity(self):
        assert is_classical(2.0 * np.eye(4))

    def test_vacuum_strictly_excluded(self):
        assert not is_classical(np.eye(4))

    def test_squeezed_vacuum_never_classical(self):
        for r in (0.01, 0.5, 2.0):
            assert not is_classical(tmsv(r))


class TestClassify:
    def test_classical_implies_separable(self):
        rng = np.random.default_rng(23)
        seen_classical = 0
        for M in sample_pd_matrices(rng, 3000):
            try:
                v = classify(M)
            except SOLVER_ERRORS:
                continue
            if v.classical:
                assert v.separable
                seen_classical += 1
        assert seen_classical > 50

    def test_agreement_with_mirror_oracle(self):
        rng = np.random.default_rng(29)
        accepted = 0
        for M in sample_pd_matrices(rng, 6000):
            try:
                v = classify(M)
            except SOLVER_ERRORS:
                continue
            assert not disagrees(v)
            if v.physical:
                accepted += 1
        assert accepted > 500

    def test_mode_swap_leaves_verdicts(self):
        rng = np.random.default_rng(31)
        perm = [2, 3, 0, 1]
        compared = 0
        for M in sample_pd_matrices(rng, 400):
            Ms = M[np.ix_(perm, perm)]
            try:
                v1 = classify(M)
                v2 = classify(Ms)
            except SOLVER_ERRORS:
                continue
            assert v1.physical == v2.physical
            assert v1.separable == v2.separable
            assert v1.classical == v2.classical
            assert v1.margin_ppt == pytest.approx(v2.margin_ppt, abs=1e-8)
            compared += 1
        assert compared >= 100

    def test_unphysical_gate_gives_nan_margin(self):
        M = 0.5 * np.eye(4)
        v = classify(M)
        assert not v.physical
        assert math.isnan(v.margin_sep)

    def test_physical_is_exact_uncertainty_test(self):
        rng = np.random.default_rng(43)
        seen = {True: 0, False: 0}
        for M in sample_pd_matrices(rng, 2000):
            try:
                v = classify(M)
            except SOLVER_ERRORS:
                continue
            assert v.physical == is_physical(M)
            seen[v.physical] += 1
        assert min(seen.values()) > 100

    def test_local_squeezed_vacua_on_the_boundary(self):
        # det A of a squeezed vacuum rounds to 1 - 1e-16 for r = 0.3.
        r = 0.3
        M = np.diag([math.exp(2 * r), math.exp(-2 * r), math.exp(r), math.exp(-r)])
        assert to_standard_form_one(M).n < 1.0
        v = classify(M)
        assert v.physical
        assert v.separable
        assert not v.classical

    def test_unphysical_sample_passing_variance_floor_left_out(self):
        # Sample 68557 of seed 20250819 at k=10, l=5.  Its cross terms
        # have opposite signs, so it clears the |a0^2 - 1/a0^2| floor,
        # yet min eig(M + i*Omega) is -0.0385 (smaller symplectic
        # eigenvalue 0.794): the state violates the uncertainty relation.
        M = np.array([
            [3.6745021778030762, 1.6460957192937711, 3.3630209612543354, 2.5337829093378286],
            [1.6460957192937711, 5.7155656526664327, 3.8317533997148683, -2.6319955652936153],
            [3.3630209612543354, 3.8317533997148683, 5.0791679654979447, 0.90328942450449734],
            [2.5337829093378286, -2.6319955652936153, 0.90328942450449734, 4.900919053821867],
        ])
        cfg = SamplerConfig(k=10.0, l=5.0, samples=1, seed=20250819)
        assert np.array_equal(sample_matrix(cfg, sample_stream(20250819, 68557)), M)
        f1 = to_standard_form_one(M)
        assert f1.c * f1.cp < 0.0
        assert passes_uncertainty_filter(total_variance(to_standard_form_two(f1)), f1)
        assert not is_physical(M)
        v = classify(M)
        assert not v.physical
        assert not v.separable
        assert not v.classical

    def test_margin_sign_matches_verdict(self):
        rng = np.random.default_rng(37)
        for M in sample_pd_matrices(rng, 500):
            try:
                v = classify(M)
            except SOLVER_ERRORS:
                continue
            if not v.physical:
                continue
            if v.separable:
                assert v.margin_sep >= -1e-12
            else:
                assert v.margin_sep < 0


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
        from gausscensus.criteria import Verdict

        v = Verdict(True, True, False, margin_sep=5e-10, margin_ppt=-2.0e-4)
        assert not disagrees(v)
        v = Verdict(True, False, False, margin_sep=-5e-4, margin_ppt=-2.0e-4)
        assert not disagrees(v)  # both tests say entangled
        v = Verdict(True, True, False, margin_sep=5e-4, margin_ppt=-2.0e-4)
        assert disagrees(v)


def block_candidates(k, l, seed=11):
    return materialised_candidates(seed, 0, BLOCK, float(k), float(l))[1]


# (exception type, message) -> SolverFailure code, from the errors the
# single-sample forms raise; a complex-root message also carries the
# discriminant, so that error is known by its type alone.
CAUSES = {(type(e), str(e)): code
          for code in SolverFailure if code for e in [code.error()]}


def chain_lane(M):
    """The reference chain's verdict on one matrix as (failure, fields).

    A solver error is mapped to its SolverFailure code; the fields of a
    failed lane are those the stacked verdict gives it."""
    try:
        v = chain_classify(M)
    except SOLVER_ERRORS as exc:
        if isinstance(exc, ComplexRootError):
            code = SolverFailure.COMPLEX_ROOT
        else:
            code = CAUSES[(type(exc), str(exc))]
        return code, (True, False, False, math.nan, chain_is_separable_ppt(M)[1])
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
        assert same_bits(v.failure, failures)
        for name, column in zip(("physical", "separable", "classical", "margin_sep",
                                 "margin_ppt"), zip(*rows)):
            assert same_bits(getattr(v, name), column), name
        assert same_bits(disagrees(v), [disagrees(v.lane(i)) for i in range(len(M))])
        if kl == (500, 250):
            assert np.count_nonzero(v.failure == SolverFailure.LINE_SEARCH_STALLED) > 1000

    def test_chunk_size_changes_nothing(self, blocks, monkeypatch):
        M = np.concatenate([blocks[kl] for kl in STACK_CONFIGS])
        assert len(M) > 2 * criteria.CLASSIFY_CHUNK
        default = classify(M)
        monkeypatch.setattr(criteria, "CLASSIFY_CHUNK", len(M) + 1)
        whole = classify(M)
        # Lanes 9000-9400 hold the end of the k=10 block and the start of
        # the k=500 block, with its stalled lanes.
        monkeypatch.setattr(criteria, "CLASSIFY_CHUNK", 1)
        part = slice(9000, 9400)
        one_by_one = classify(M[part])
        assert np.count_nonzero(one_by_one.failure) > 50
        for f in dataclasses.fields(default):
            assert same_bits(getattr(whole, f.name), getattr(default, f.name)), f.name
            assert same_bits(getattr(one_by_one, f.name), getattr(default, f.name)[part]), f.name

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
        M = blocks[(500, 250)]
        v = classify(M)
        i = int(np.flatnonzero(v.failure == SolverFailure.LINE_SEARCH_STALLED)[0])
        want = (NoConvergenceError, "line search stalled")
        assert self._raised(chain_classify, M[i]) == want
        assert self._raised(classify, M[i]) == want
        f1 = to_standard_form_one(M[i])
        assert self._raised(to_standard_form_two, f1) == want
        assert self._raised(chain_form_two, ChainFormI(f1.n, f1.m, f1.c, f1.cp)) == want

    def test_degenerate_input_raises_as_before(self):
        want = (DegenerateError, "unit local invariants with nonzero cross term")
        assert self._raised(chain_form_two, ChainFormI(1.0, 1.0, 0.3, 0.1)) == want
        assert self._raised(to_standard_form_two, StandardFormI(1.0, 1.0, 0.3, 0.1)) == want
        stacked = to_standard_form_two(StandardFormI(
            np.array([1.0, 2.0]), np.array([1.0, 2.0]), np.array([0.3, 0.3]),
            np.array([0.1, 0.1])))
        assert list(stacked.failure) == [SolverFailure.DEGENERATE, SolverFailure.NONE]
        assert math.isnan(stacked.a0[0]) and stacked.a0[1] > 0.0

    def test_complex_root_input_raises_as_before(self):
        # Diagonal 1e6 and cross terms +-0.1: det M loses the cross terms
        # to rounding and the discriminant comes out negative.
        M = form_one_matrix(1e6, 1e6, 0.1, -0.1)
        for fn in (chain_form_one, to_standard_form_one, chain_classify, classify):
            with pytest.raises(ComplexRootError):
                fn(M)
        f1 = to_standard_form_one(np.stack([M, np.eye(4)]))
        assert list(f1.failure) == [SolverFailure.COMPLEX_ROOT, SolverFailure.NONE]
        v = classify(np.stack([M, np.eye(4)]))
        assert list(v.failure) == [SolverFailure.COMPLEX_ROOT, SolverFailure.NONE]
        assert list(v.physical) == [True, True]
        assert not v.separable[0] and v.separable[1]
