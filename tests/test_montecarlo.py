"""Census drivers: determinism, streaming accuracy, and accounting."""

import dataclasses
import math
import multiprocessing
import time

import numpy as np
import pytest

from gausscensus import cli, criteria, measures, montecarlo, states
from gausscensus.montecarlo import (
    EntropyReport,
    LogSumExp,
    OneModePoint,
    SamplerConfig,
    run_bures_census,
    run_classical_census,
    run_classical_sweep,
    run_entropy_probe,
    run_one_mode_classicality,
)
from gausscensus.rng import BLOCK, grid_stream, substream_uniforms

from oracles import (
    CHAIN_SOLVER_ERRORS,
    PAIRS,
    STACK_CONFIGS,
    accepted_samples,
    chain_classify,
    grid_coords,
    kernel_on_grid,
    materialised_candidates,
    same_value,
    sample_matrix,
    sample_stream,
    volumes_on_grids,
)


class TestSamplerConfig:
    def test_rejects_nonpositive_bounds(self) -> None:
        with pytest.raises(ValueError):
            SamplerConfig(k=0.0, l=5.0, samples=10, seed=1)
        with pytest.raises(ValueError):
            SamplerConfig(k=10.0, l=-1.0, samples=10, seed=1)

    def test_rejects_negative_samples(self) -> None:
        with pytest.raises(ValueError):
            SamplerConfig(k=10.0, l=5.0, samples=-1, seed=1)

    def test_rejects_more_samples_than_indices(self) -> None:
        # Sample indices are unsigned 64-bit integers.
        SamplerConfig(k=10.0, l=5.0, samples=2**64, seed=1)
        with pytest.raises(ValueError, match=r"at most 2\*\*64"):
            SamplerConfig(k=10.0, l=5.0, samples=2**64 + 1, seed=1)

    def test_rejects_bad_mode_count(self) -> None:
        with pytest.raises(ValueError):
            SamplerConfig(k=10.0, l=5.0, samples=10, seed=1, mode_count=3)

    def test_rejects_out_of_range_seed(self) -> None:
        with pytest.raises(ValueError):
            SamplerConfig(k=10.0, l=5.0, samples=10, seed=-1)
        with pytest.raises(ValueError):
            SamplerConfig(k=10.0, l=5.0, samples=10, seed=2**64)

    @pytest.mark.parametrize("k, l", [(math.inf, 5.0), (10.0, math.inf), (math.nan, 5.0),
                                      (10.0, -math.inf)])
    def test_rejects_nonfinite_bounds(self, k, l) -> None:
        with pytest.raises(ValueError, match="k and l must be finite"):
            SamplerConfig(k=k, l=l, samples=10, seed=1)

    @pytest.mark.parametrize("k, l, mode_count", [(1e200, 5.0, 2), (10.0, 6e76, 2),
                                                  (1e154, 1.0, 1), (1.0, 1e200, 1)])
    def test_rejects_bounds_that_overflow_the_determinant(self, k, l, mode_count) -> None:
        with pytest.raises(ValueError, match="determinant can overflow"):
            SamplerConfig(k=k, l=l, samples=10, seed=1, mode_count=mode_count)

    def test_accepts_bounds_below_the_overflow_limit(self) -> None:
        SamplerConfig(k=5e76, l=5e76, samples=10, seed=1)
        SamplerConfig(k=9e153, l=9e153, samples=10, seed=1, mode_count=1)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            res = run_classical_census(SamplerConfig(k=5e76, l=5e76, samples=20_000, seed=1))
        assert res.accepted > 0


class TestLogSumExp:
    def test_matches_direct_reduction(self) -> None:
        rng = np.random.default_rng(5)
        xs = rng.normal(size=300) * 30.0
        acc = LogSumExp()
        for part in (xs[:100], xs[100:200], xs[200:]):
            acc.add_array(part)
        direct = float(np.logaddexp.reduce(xs))
        assert acc.log_total() == pytest.approx(direct, rel=1e-13)

    def test_shift_invariance(self) -> None:
        # Ratios of weighted sums must not move when every log weight
        # gets the same constant added.
        rng = np.random.default_rng(6)
        num = rng.normal(size=80) * 50.0
        den = np.concatenate([num, rng.normal(size=40) * 50.0])
        for shift in (0.0, 1000.0, -1000.0):
            a, b = LogSumExp(), LogSumExp()
            a.add_array(num + shift)
            b.add_array(den + shift)
            ratio = math.exp(a.log_total() - b.log_total())
            if shift == 0.0:
                base = ratio
            assert ratio == pytest.approx(base, rel=1e-12)

    def test_merge_equals_single_pass(self) -> None:
        xs = np.linspace(-700.0, 700.0, 91)
        one = LogSumExp()
        one.add_array(xs)
        left, right = LogSumExp(), LogSumExp()
        left.add_array(xs[:40])
        right.add_array(xs[40:])
        left.merge(right)
        assert left.log_total() == pytest.approx(one.log_total(), rel=1e-13)

    def test_empty_total_is_minus_infinity(self) -> None:
        assert LogSumExp().log_total() == -math.inf

    def test_rejects_nonfinite_weights(self) -> None:
        acc = LogSumExp()
        for bad in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError):
                acc.add_array(np.array([0.0, bad]))


class TestDeterminism:
    def test_classical_census_worker_invariance(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=140_000, seed=9)
        serial = run_classical_census(cfg)
        parallel = run_classical_census(cfg, workers=3)
        assert serial.generated == parallel.generated
        assert serial.accepted == parallel.accepted
        assert serial.separable == parallel.separable
        assert serial.classical == parallel.classical
        assert serial.solver_failures == parallel.solver_failures
        assert serial.prob_sep() == parallel.prob_sep()
        assert serial.prob_classical() == parallel.prob_classical()

    def test_bures_census_worker_invariance(self) -> None:
        cfg = SamplerConfig(k=15.0, l=15.0, samples=100_000, seed=7)
        serial = run_bures_census(cfg)
        parallel = run_bures_census(cfg, workers=2)
        assert serial.accepted == parallel.accepted
        assert serial.discarded_grids == parallel.discarded_grids
        for name in serial.measure_names():
            assert serial.prob_sep(name) == parallel.prob_sep(name)
            assert serial.prob_classical(name) == parallel.prob_classical(name)


class TestClassicalSweepArguments:
    """A sweep's arguments are checked before any of its blocks runs."""

    CFG = SamplerConfig(k=10.0, l=5.0, samples=2 * BLOCK, seed=3)

    @pytest.fixture
    def blocks(self, monkeypatch) -> list:
        blocks = []
        real = montecarlo.substream_uniforms

        def counted(seed, start, count, width):
            blocks.append(start)
            return real(seed, start, count, width)

        monkeypatch.setattr(montecarlo, "substream_uniforms", counted)
        return blocks

    @pytest.mark.parametrize("callbacks", [0, 1, 3])
    def test_progress_must_match_the_configs(self, blocks, callbacks) -> None:
        with pytest.raises(ValueError, match=f"{callbacks} progress callbacks for 2 configs"):
            run_classical_sweep([self.CFG, self.CFG], progress=[None] * callbacks)
        assert blocks == []

    def test_one_mode_config_refused_before_any_block(self, blocks) -> None:
        one_mode = dataclasses.replace(self.CFG, mode_count=1)
        with pytest.raises(ValueError, match="two-mode"):
            run_classical_sweep([self.CFG, one_mode])
        assert blocks == []
        assert len(list(run_classical_sweep([self.CFG]))) == 1
        assert blocks == [0, BLOCK]


class TestWorkerPool:
    @pytest.fixture
    def pools(self, monkeypatch) -> list:
        # An in-process stand-in for the pool records its size and the
        # blocks mapped through it; a real pool would fork all of its
        # workers at the first submit.
        pools = []

        class InProcessPool:
            def __init__(self, max_workers):
                self.size = max_workers
                self.blocks = 0
                pools.append(self)

            def map(self, fn, argses):
                self.blocks += len(argses)
                return map(fn, argses)

            def shutdown(self, cancel_futures=False):
                pass

        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", InProcessPool)
        return pools

    def test_pool_is_capped_at_the_block_count(self, pools) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=100_000, seed=3)
        wide = run_classical_census(cfg, workers=64)
        assert [p.size for p in pools] == [2]
        serial = run_classical_census(cfg)
        assert (wide.accepted, wide.prob_sep()) == (serial.accepted, serial.prob_sep())
        run_classical_census(dataclasses.replace(cfg, samples=3 * BLOCK), workers=2)
        assert [p.size for p in pools] == [2, 2]

    def test_table1_sweep_runs_on_one_pool(self, pools, capsys) -> None:
        # Rows of 1, 1, 2, 3 and 4 blocks: eleven blocks on one pool of
        # two, and every row as its own census gives it.
        assert cli.main(["table1", "--scale", "0.02", "--workers", "2"]) == 0
        assert [(p.size, p.blocks) for p in pools] == [(min(2, 11), 11)]
        rows = [
            cli._census_row(run_classical_census(
                SamplerConfig(k=k, l=l, samples=round(full * 0.02), seed=1 + i)))
            for i, (k, l, full) in enumerate(cli.TABLE1_ROWS)
        ]
        assert capsys.readouterr().out == cli._render(cli.CENSUS_FIELDS, rows, "csv")

    def test_one_mode_schedule_runs_on_one_pool(self, pools) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=2 * BLOCK + 7, seed=8, mode_count=1)
        ks = (5.0, 10.0, 20.0)
        points = run_one_mode_classicality(cfg, ks=ks, workers=2)
        assert [(p.size, p.blocks) for p in pools] == [(2, 9)]
        alone = [run_one_mode_classicality(cfg, ks=(k,))[0] for k in ks]
        assert [dataclasses.astuple(p) for p in points] == [dataclasses.astuple(p) for p in alone]


class TestStreamingAccuracy:
    def test_matches_two_pass_computation(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10_000, seed=42)
        res = run_classical_census(cfg)
        log_acc: list[float] = []
        log_sep: list[float] = []
        log_cls: list[float] = []
        for _, matrix, verdict in accepted_samples(cfg):
            lw = -2.5 * math.log(np.linalg.det(matrix))
            log_acc.append(lw)
            if verdict.separable:
                log_sep.append(lw)
            if verdict.classical:
                log_cls.append(lw)
        assert res.accepted == len(log_acc)
        assert res.separable == len(log_sep)
        assert res.classical == len(log_cls)

        def total(vals: list[float]) -> float:
            return float(np.logaddexp.reduce(np.array(vals)))

        direct_sep = math.exp(total(log_sep) - total(log_acc))
        direct_cls = math.exp(total(log_cls) - total(log_acc))
        assert res.prob_sep() == pytest.approx(direct_sep, rel=1e-12)
        assert res.prob_classical() == pytest.approx(direct_cls, rel=1e-12)


class TestCountsAndErrors:
    def test_counts_ordering(self) -> None:
        for k, l, seed in ((10.0, 5.0, 1), (15.0, 15.0, 2), (3.0, 2.0, 3)):
            res = run_classical_census(SamplerConfig(k=k, l=l, samples=50_000, seed=seed))
            assert res.classical <= res.separable <= res.accepted <= res.generated
            assert res.accepted + res.solver_failures <= res.generated

    def test_zero_sample_run(self) -> None:
        res = run_classical_census(SamplerConfig(k=10.0, l=5.0, samples=0, seed=1))
        assert res.generated == 0
        assert res.accepted == 0
        assert sorted(res.measure_names()) == ["fisher"]
        with pytest.raises(ValueError, match="no accepted samples"):
            res.prob_sep()

    def test_unknown_measure_raises_key_error(self) -> None:
        res = run_classical_census(SamplerConfig(k=10.0, l=5.0, samples=2_000, seed=1))
        with pytest.raises(KeyError):
            res.prob_sep("euclid")

    def test_solver_failures_counted_on_wide_box(self) -> None:
        res = run_classical_census(SamplerConfig(k=500.0, l=250.0, samples=30_000, seed=4))
        assert res.solver_failures > 0
        assert res.accepted + res.solver_failures <= res.generated

    def test_one_mode_config_rejected(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10, seed=1, mode_count=1)
        with pytest.raises(ValueError):
            run_classical_census(cfg)


class TestSampleAccess:
    def test_sample_matrix_matches_block_sampler(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=1, seed=42)
        for index in (0, 137, 65_536, 2**40):
            single = sample_matrix(cfg, sample_stream(42, index))
            uniforms = substream_uniforms(42, index, 1, 10)
            diag = 10.0 * uniforms[0, :4]
            block = np.diag(diag)
            pairs = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
            for slot, (i, j) in enumerate(pairs):
                value = -5.0 + 2.0 * 5.0 * uniforms[0, 4 + slot]
                block[i, j] = block[j, i] = value
            assert np.array_equal(single, block)

    @pytest.mark.parametrize("k,l", [(10.0, 5.0), (15.0, 15.0)])
    def test_block_matrices_match_sample_matrix(self, k, l) -> None:
        cfg = SamplerConfig(k=k, l=l, samples=1, seed=42)
        M = montecarlo._build_matrices(substream_uniforms(42, 1000, 200, 10), k, l)
        assert M.shape == (200, 4, 4)
        for i in range(200):
            single = sample_matrix(cfg, sample_stream(42, 1000 + i))
            assert M[i].tobytes() == single.tobytes()


class TestBuresCensus:
    def test_small_census_accounting(self) -> None:
        cfg = SamplerConfig(k=15.0, l=15.0, samples=400_000, seed=7)
        res = run_bures_census(cfg)
        assert sorted(res.measure_names()) == [
            "bures:median",
            "bures:trimmed_mean",
            "fisher",
        ]
        assert res.generated == 400_000
        # Frozen by the determinism contract: any change here means the
        # sampling or discard pipeline moved.  accepted is the count of
        # physical states that the eigenvalue oracle gives.
        assert res.accepted == 1_667
        assert res.discarded_grids == 537
        assert res.separable == 1_114
        assert res.classical == 693
        assert res.solver_failures == 0
        assert res.numerical_faults == 0
        assert res.ordering_faults == 0
        survivors = res.accepted - res.discarded_grids
        assert res.separable <= survivors
        for name in res.measure_names():
            assert 0.0 <= res.prob_classical(name) <= res.prob_sep(name) <= 1.0

    def test_all_metric_kinds_share_population(self) -> None:
        cfg = SamplerConfig(k=15.0, l=15.0, samples=100_000, seed=21)
        res = run_bures_census(cfg, metric_kinds=("bures", "kubo_mori", "maximal"))
        names = sorted(res.measure_names())
        assert names == [
            "bures:median",
            "bures:trimmed_mean",
            "fisher",
            "kubo_mori:median",
            "kubo_mori:trimmed_mean",
            "maximal:median",
            "maximal:trimmed_mean",
        ]
        assert res.numerical_faults == 0

    def test_rejects_bad_arguments(self) -> None:
        cfg = SamplerConfig(k=15.0, l=15.0, samples=10, seed=1)
        with pytest.raises(ValueError, match="metric kind"):
            run_bures_census(cfg, metric_kinds=("euclid",))
        with pytest.raises(ValueError, match="estimator"):
            run_bures_census(cfg, estimators=("midhinge",))
        with pytest.raises(ValueError, match="grid range"):
            run_bures_census(cfg, grid_range=(2.0, -2.0))
        for size in (0, -3):
            with pytest.raises(ValueError, match="grid_size"):
                run_bures_census(cfg, grid_size=size)
        with pytest.raises(ValueError, match="n_grids"):
            run_bures_census(cfg, n_grids=0)
        for bad in ((-math.inf, 2.0), (-2.0, math.inf), (math.nan, 2.0), (-2.0, math.nan),
                    (-1e308, 1e308)):
            with pytest.raises(ValueError, match="must be finite"):
                run_bures_census(cfg, grid_range=bad)
        # Five coordinates at least grid_coincidence = 1e-9 apart need a
        # range wider than 4e-9.
        for bad in ((0.0, 1e-12), (0.0, 4e-9)):
            with pytest.raises(ValueError, match="too narrow"):
                run_bures_census(cfg, grid_range=bad)
        run_bures_census(cfg, grid_range=(0.0, 1e-12), grid_size=1)

    def test_jeffreys_census_does_no_volume_work(self, monkeypatch) -> None:
        calls = []

        def counted(fn):
            def wrapper(*args, **kwargs):
                calls.append(fn.__name__)
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(montecarlo, "grid_uniforms", counted(montecarlo.grid_uniforms))
        monkeypatch.setattr(measures, "_volume_logs", counted(measures._volume_logs))
        cfg = SamplerConfig(k=15.0, l=15.0, samples=BLOCK, seed=21)
        assert run_classical_census(cfg).accepted > 0
        assert calls == []
        # The wrappers do see the volume stage of the same config.
        run_bures_census(cfg)
        assert {"grid_uniforms", "_volume_logs"} <= set(calls)


ALL_KINDS = ("bures", "kubo_mori", "maximal")
ESTIMATORS = ("median", "trimmed_mean")


def _per_sample_bures(cfg: SamplerConfig, coincidence: float = 1e-9):
    """The Bures census one accepted sample at a time.

    Each sample draws five grids from its own grid stream, redrawing a
    grid whose coordinates come closer than `coincidence`, and gets one
    reference kernel per grid (tests/oracles.py), and the tallies are
    built in sample order, as the census did before its volume stage
    worked on whole blocks.  Returns the counts, the tallies, the
    positions (among accepted samples) of the discarded ones, and the
    number of kernels up to and including each sample's first rejected
    one (all five if none is rejected).
    """
    keys = ["fisher"] + [f"{kind}:{name}" for kind in ALL_KINDS for name in ESTIMATORS]
    lws = {key: ([], [], []) for key in keys}
    counts = dict.fromkeys(
        ("accepted", "separable", "classical", "discarded_grids",
         "numerical_faults", "ordering_faults"), 0)
    discarded_at = []
    kernels = 0
    for index, matrix, verdict in accepted_samples(cfg):
        counts["accepted"] += 1
        stream = grid_stream(cfg.seed, index)
        grids = [grid_coords(stream, coincidence=coincidence) for _ in range(5)]
        volumes = volumes_on_grids(matrix, grids, ALL_KINDS)
        if volumes is None:
            counts["discarded_grids"] += 1
            discarded_at.append(counts["accepted"] - 1)
            rejected = [kernel_on_grid(matrix, coords)[1] is None for coords in grids]
            kernels += rejected.index(True) + 1
            continue
        kernels += len(grids)
        if not all(np.isfinite(volumes[kind][0]).all() for kind in ALL_KINDS):
            counts["numerical_faults"] += 1
            continue
        vb, vk, vm = (volumes[kind][0] for kind in ALL_KINDS)
        slack = 1e-9 * np.maximum(1.0, np.abs(vk))
        counts["ordering_faults"] += int(np.count_nonzero((vb > vk + slack) | (vk > vm + slack)))
        counts["separable"] += verdict.separable
        counts["classical"] += verdict.classical
        sample = {"fisher": -2.5 * math.log(np.linalg.det(matrix[None])[0])}
        for kind in ALL_KINDS:
            for pos, name in enumerate(ESTIMATORS, start=1):
                sample[f"{kind}:{name}"] = volumes[kind][pos]
        for key in keys:
            lws[key][0].append(sample[key])
            if verdict.separable:
                lws[key][1].append(sample[key])
            if verdict.classical:
                lws[key][2].append(sample[key])
    tallies = {}
    for key, parts in lws.items():
        tally = tallies[key] = montecarlo.MeasureTally()
        for part, values in zip((tally.acc, tally.sep, tally.cls), parts):
            part.add_array(values)
    return counts, tallies, discarded_at, kernels


def _lse_fields(tally) -> list:
    return [(part.log_max, part.sum_scaled) for part in (tally.acc, tally.sep, tally.cls)]


class TestBuresVolumeStage:
    CFG = SamplerConfig(k=15.0, l=15.0, samples=BLOCK, seed=21)

    @pytest.fixture(scope="class")
    def reference(self):
        return _per_sample_bures(self.CFG)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("chunk", [None, 1, 10**6])
    def test_block_matches_per_sample_reference(self, reference, monkeypatch, chunk) -> None:
        counts, tallies, discarded_at, _ = reference
        # A discarded sample strictly inside a chunk of the default size,
        # with kept samples before and after it in the same chunk.
        size = measures.KERNEL_CHUNK
        assert any(0 < pos % size < size - 1 for pos in discarded_at)
        if chunk is not None:
            assert chunk == 1 or chunk > counts["accepted"]
            monkeypatch.setattr(measures, "KERNEL_CHUNK", chunk)
        res = run_bures_census(self.CFG, metric_kinds=ALL_KINDS)
        assert 0 < counts["discarded_grids"] < counts["accepted"]
        for name, value in counts.items():
            assert getattr(res, name) == value, name
        assert sorted(res.measures) == sorted(tallies)
        for key, tally in tallies.items():
            assert _lse_fields(res.measures[key]) == _lse_fields(tally), key

    @pytest.mark.parametrize("chunk", [None, 1])
    def test_stops_at_the_first_rejected_grid(self, reference, monkeypatch, chunk) -> None:
        # A sample's kernels are built grid by grid, and none after its
        # first rejected one.
        counts, _, _, kernels = reference
        built = []
        discretize = measures.discretize

        def counted(*args, **kwargs):
            kern = discretize(*args, **kwargs)
            built.append(kern.passed_floor.size)
            return kern

        monkeypatch.setattr(measures, "discretize", counted)
        if chunk is not None:
            monkeypatch.setattr(measures, "KERNEL_CHUNK", chunk)
        res = run_bures_census(self.CFG)
        assert res.discarded_grids == counts["discarded_grids"]
        assert sum(built) == kernels < 5 * counts["accepted"]

    @pytest.mark.filterwarnings("error")
    def test_coincident_grids_are_redrawn_from_the_stream(self, monkeypatch) -> None:
        # At grid_coincidence 0.01 about a fifth of the samples have a
        # gap below it among their 25 coordinates and are redrawn whole
        # through grid_stream and random_grid.
        tol = dataclasses.replace(montecarlo.DEFAULT, grid_coincidence=0.01)
        counts, tallies, _, _ = _per_sample_bures(self.CFG, coincidence=tol.grid_coincidence)
        redrawn = []
        stream = montecarlo.grid_stream

        def counted(seed, index):
            redrawn.append(index)
            return stream(seed, index)

        monkeypatch.setattr(montecarlo, "DEFAULT", tol)
        monkeypatch.setattr(montecarlo, "grid_stream", counted)
        res = run_bures_census(self.CFG, metric_kinds=ALL_KINDS)
        assert len(redrawn) >= 0.1 * counts["accepted"]
        for name, value in counts.items():
            assert getattr(res, name) == value, name
        for key, tally in tallies.items():
            assert _lse_fields(res.measures[key]) == _lse_fields(tally), key


def _per_sample_classical(cfg: SamplerConfig):
    """The Jeffreys census one candidate at a time with the reference chain.

    Every positive definite candidate goes through the per-sample chain
    of tests/oracles.py in sample order, a solver error counts as a
    failure, and each accepted sample's weight -2.5 log det M goes into
    the tallies in sample order, as the census did before its classify
    stage took whole blocks.
    """
    counts = dict.fromkeys(("accepted", "separable", "classical", "solver_failures"), 0)
    lws = ([], [], [])
    for start in range(0, cfg.samples, BLOCK):
        count = min(BLOCK, cfg.samples - start)
        _, M, dets = materialised_candidates(cfg.seed, start, count, cfg.k, cfg.l)
        for Mi, det in zip(M, dets):
            try:
                verdict = chain_classify(Mi)
            except CHAIN_SOLVER_ERRORS:
                counts["solver_failures"] += 1
                continue
            if not verdict.physical:
                continue
            lw = -2.5 * math.log(float(det))
            counts["accepted"] += 1
            lws[0].append(lw)
            for key, part, flag in (("separable", 1, verdict.separable),
                                    ("classical", 2, verdict.classical)):
                if flag:
                    counts[key] += 1
                    lws[part].append(lw)
    tally = montecarlo.MeasureTally()
    for part, values in zip((tally.acc, tally.sep, tally.cls), lws):
        part.add_array(values)
    return counts, tally


def _same_candidates(seed, start, count, k, l):
    ours = montecarlo._candidates(seed, start, count, float(k), float(l))
    ref = materialised_candidates(seed, start, count, float(k), float(l))
    for name, a, b in zip(("index", "matrices", "dets"), ours, ref):
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name
    return ours


@pytest.mark.filterwarnings("error")
class TestCandidates:
    """The screened front end against the full-materialising one."""

    @pytest.mark.parametrize("kl", STACK_CONFIGS)
    def test_every_box(self, kl) -> None:
        index, _, _ = _same_candidates(11, 0, BLOCK, *kl)
        assert index.size > 0

    @pytest.mark.parametrize("count", [0, 1, 12_345])
    def test_short_blocks(self, count) -> None:
        _same_candidates(7, 3 * BLOCK, count, 10, 5)

    def test_last_block_of_the_index_range(self) -> None:
        count = BLOCK - 1000
        index, _, _ = _same_candidates(7, 2**64 - count, count, 10, 5)
        assert index.size > 0

    def test_box_with_no_3x3_survivor(self) -> None:
        # About 300 samples of the block pass the 2x2 minor, none the 3x3.
        index, M, dets = _same_candidates(11, 0, BLOCK, 0.01, 1.0)
        assert index.size == 0 and M.shape == (0, 4, 4) and dets.shape == (0,)
        u = substream_uniforms(11, 0, BLOCK, width=10)
        M = montecarlo._build_matrices(u, 0.01, 1.0)
        assert np.count_nonzero(M[:, 0, 0] * M[:, 1, 1] > M[:, 0, 1] ** 2) > 100


def _adversarial(n: int, scale: float, eps: float, count: int, seed: int) -> np.ndarray:
    # Symmetric n x n matrices whose determinants sit at or near zero:
    # PSD matrices of rank 1..n-1 plus a rank-one term of relative size
    # eps and random sign, scaled to max|entry| == scale.  A quarter get
    # entries spread over eight decades, and a quarter exact zeros off
    # the diagonal.
    rng = np.random.default_rng(seed)
    per = count // (n - 1)
    parts = []
    for rank in range(1, n):
        X = rng.normal(size=(per, n, rank))
        parts.append(X @ X.transpose(0, 2, 1))
    G = np.concatenate(parts)
    y = rng.normal(size=(len(G), n, 1))
    sign = rng.choice([-1.0, 1.0], size=(len(G), 1, 1))
    peak = np.abs(G).max(axis=(1, 2), keepdims=True)
    G = G + sign * eps * peak * (y @ y.transpose(0, 2, 1)) / np.abs(y).max(axis=1, keepdims=True) ** 2
    quarter = len(G) // 4
    d = 10.0 ** rng.uniform(-8.0, 0.0, size=(quarter, n, 1))
    G[:quarter] *= d * d.transpose(0, 2, 1)
    zero = rng.random((quarter, n, n)) < 0.3
    zero = (zero | zero.transpose(0, 2, 1)) & ~np.eye(n, dtype=bool)
    G[quarter:2 * quarter][zero] = 0.0
    return G * (scale / np.abs(G).max(axis=(1, 2), keepdims=True))


def _as_values(G: np.ndarray) -> np.ndarray:
    # The ten _values columns of the 4x4 matrices whose leading block is G.
    M = np.zeros((len(G), 4, 4))
    n = G.shape[1]
    M[:, :n, :n] = G
    rows, cols = zip(*([(j, j) for j in range(4)] + list(PAIRS)))
    return M[:, rows, cols]


@pytest.mark.filterwarnings("error")
class TestMinorSigns:
    """The closed-form sign screen against LAPACK's sign."""

    @pytest.mark.parametrize("eps", [0.0, 1e-18, 1e-15, 1e-12, 1e-9])
    @pytest.mark.parametrize("scale", [1.0, 15.0, 500.0])
    @pytest.mark.parametrize("n", [3, 4])
    def test_matches_lapack_near_singular(self, n, scale, eps) -> None:
        G = _adversarial(n, scale, eps, 24_000, seed=n * 1000 + int(scale))
        ours = montecarlo._minor_positive(_as_values(G), n, scale)
        assert np.array_equal(ours, np.linalg.det(G) > 0.0)

    @pytest.mark.parametrize("scale", [1e-80, 1e80])
    @pytest.mark.parametrize("n", [3, 4])
    def test_extreme_scales_take_lapack_sign(self, n, scale) -> None:
        # A 4x4 determinant near 1e320 overflows to +-inf in LAPACK's
        # det, with its sign kept; the closed form is never evaluated.
        G = _adversarial(n, scale, 1e-9, 3_000, seed=5)
        with np.errstate(over="ignore"):
            ours = montecarlo._minor_positive(_as_values(G), n, scale)
            assert np.array_equal(ours, np.linalg.det(G) > 0.0)

    def test_lapack_only_on_candidates(self, monkeypatch) -> None:
        # On this block no row falls in a rounding band, so the only
        # np.linalg.det call is on the returned candidates.
        seed, k, l = 11, 15.0, 15.0
        values = montecarlo._values(substream_uniforms(seed, 0, BLOCK, width=10), k, l)
        m00, m11, m01 = values[:, 0], values[:, 1], values[:, 4]
        two = (m00 > 0.0) & (m00 * m11 - m01 ** 2 > 0.0)
        minor3 = montecarlo._closed_minor(values, 3)
        minor4 = montecarlo._closed_minor(values, 4)
        band3 = two & (np.abs(minor3) <= montecarlo._SIGN_BAND[3] * k ** 3)
        band4 = two & (minor3 > 0.0) & (np.abs(minor4) <= montecarlo._SIGN_BAND[4] * k ** 4)
        assert not band3.any() and not band4.any()
        calls = []
        det = np.linalg.det

        def recorded(a):
            calls.append(np.array(a))
            return det(a)

        monkeypatch.setattr(np.linalg, "det", recorded)
        index, M, _ = montecarlo._candidates(seed, 0, BLOCK, k, l)
        monkeypatch.undo()
        assert index.size > 0
        assert len(calls) == 1 and np.array_equal(calls[0], M)


class TestClassicalBlock:
    @pytest.mark.parametrize("k, l", [(10.0, 5.0), (500.0, 250.0)])
    def test_matches_per_sample_reference(self, k, l) -> None:
        cfg = SamplerConfig(k=k, l=l, samples=BLOCK, seed=7)
        counts, tally = _per_sample_classical(cfg)
        res = run_classical_census(cfg)
        for name, value in counts.items():
            assert getattr(res, name) == value, name
        assert _lse_fields(res.measures["fisher"]) == _lse_fields(tally)
        if k == 500.0:
            assert res.solver_failures > 1000


class TestOracleAbort:
    def _flag_first_accepted(self, monkeypatch, cfg):
        # The mirror oracle "disagrees" on one sample of the first block:
        # the patch flags the row of a stacked verdict that equals the
        # sample's verdict in every field.
        _, matrix, target = next(accepted_samples(cfg))
        real = criteria.disagrees

        def disagrees(verdict, tol=criteria.DEFAULT):
            row = np.ones(np.shape(verdict.physical), dtype=bool)
            for f in dataclasses.fields(verdict):
                row &= same_value(getattr(verdict, f.name), getattr(target, f.name))
            return real(verdict, tol) | row

        monkeypatch.setattr(criteria, "disagrees", disagrees)
        return matrix

    def _count_blocks(self, monkeypatch) -> list:
        blocks = []
        real = montecarlo.substream_uniforms

        def counted(seed, start, count, width):
            blocks.append(start)
            return real(seed, start, count, width)

        monkeypatch.setattr(montecarlo, "substream_uniforms", counted)
        return blocks

    def test_bures_census_aborts_in_process(self, monkeypatch) -> None:
        cfg = SamplerConfig(k=15.0, l=15.0, samples=3 * BLOCK, seed=5)
        matrix = self._flag_first_accepted(monkeypatch, cfg)
        blocks = self._count_blocks(monkeypatch)
        with pytest.raises(criteria.OracleDisagreementError) as info:
            run_bures_census(cfg)
        assert np.array_equal(info.value.matrix, matrix)
        assert blocks == [0]

    def test_classical_census_aborts_in_process(self, monkeypatch) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=3 * BLOCK, seed=5)
        matrix = self._flag_first_accepted(monkeypatch, cfg)
        blocks = self._count_blocks(monkeypatch)
        with pytest.raises(criteria.OracleDisagreementError) as info:
            run_classical_census(cfg)
        assert np.array_equal(info.value.matrix, matrix)
        assert blocks == [0]

    @pytest.mark.skipif(
        multiprocessing.get_start_method() != "fork",
        reason="pool workers see the patched functions only when forked",
    )
    def test_bures_census_abort_cancels_pending_blocks(self, monkeypatch, tmp_path) -> None:
        # Pool workers are forked from this process, so they see the
        # patched functions; each block notes its start in a file and
        # takes at least a quarter second.
        total = 16
        cfg = SamplerConfig(k=15.0, l=15.0, samples=total * BLOCK, seed=5)
        matrix = self._flag_first_accepted(monkeypatch, cfg)
        log = tmp_path / "blocks.txt"
        real = montecarlo.substream_uniforms

        def slow(seed, start, count, width):
            with open(log, "a") as fh:
                fh.write(f"{start}\n")
            time.sleep(0.25)
            return real(seed, start, count, width)

        monkeypatch.setattr(montecarlo, "substream_uniforms", slow)
        with pytest.raises(criteria.OracleDisagreementError) as info:
            run_bures_census(cfg, workers=2)
        assert np.array_equal(info.value.matrix, matrix)
        started = log.read_text().split()
        assert "0" in started
        assert len(started) < total


class TestOneModeClassicality:
    def test_requires_one_mode_config(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10, seed=1)
        with pytest.raises(ValueError):
            run_one_mode_classicality(cfg)

    def test_k_below_one_gives_zero_probability(self) -> None:
        cfg = SamplerConfig(k=0.5, l=0.25, samples=20_000, seed=11, mode_count=1)
        (point,) = run_one_mode_classicality(cfg)
        expected = OneModePoint(0.5, 0.25, 20_000, 0, 0, 0.0, 0.0)
        assert all(
            getattr(point, name) == getattr(expected, name)
            for name in ("k", "l", "samples", "physical", "classical",
                         "prob_classical", "stderr")
        )

    def test_schedule_scales_off_diagonal_bound(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=30_000, seed=12, mode_count=1)
        points = run_one_mode_classicality(cfg, ks=(10.0, 40.0))
        assert [p.k for p in points] == [10.0, 40.0]
        assert [p.l for p in points] == [5.0, 20.0]
        for point in points:
            assert 0.0 < point.prob_classical < 1.0
            assert point.stderr > 0.0
            assert point.classical <= point.physical <= point.samples

    def test_rejects_nonpositive_schedule(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10, seed=1, mode_count=1)
        with pytest.raises(ValueError):
            run_one_mode_classicality(cfg, ks=(10.0, 0.0))

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_nonfinite_schedule(self, bad) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10, seed=1, mode_count=1)
        with pytest.raises(ValueError, match="positive and finite"):
            run_one_mode_classicality(cfg, ks=(10.0, bad))

    def test_rejects_schedule_that_overflows_the_determinant(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=10, seed=1, mode_count=1)
        with pytest.raises(ValueError, match="determinant can overflow"):
            run_one_mode_classicality(cfg, ks=(10.0, 1e200))
        # l scales with k, so the limit applies to max(k, l).
        wide = SamplerConfig(k=1.0, l=4.0, samples=10, seed=1, mode_count=1)
        with pytest.raises(ValueError, match="determinant can overflow"):
            run_one_mode_classicality(wide, ks=(5e153,))

    def test_zero_samples_give_the_empty_point(self) -> None:
        cfg = SamplerConfig(k=2.0, l=1.0, samples=0, seed=1, mode_count=1)
        (point,) = run_one_mode_classicality(cfg)
        assert (point.k, point.l, point.samples, point.physical, point.classical,
                point.prob_classical, point.stderr) == (2.0, 1.0, 0, 0, 0, 0.0, 0.0)


def _classify_entropy_block(args):
    # The entropy block as it was built on the full stacked classify,
    # form-II solve included; its report is the reference.
    seed, start, count, k, l = args
    tol = criteria.DEFAULT
    index, M, _ = montecarlo._candidates(seed, start, count, k, l)
    v = criteria.classify(M, tol)
    separable = v.physical & criteria.is_separable_ppt(M, tol)[0]
    M = M[separable]
    joint = states.entropy(M)
    largest = np.maximum(states.entropy(M[:, :2, :2]), states.entropy(M[:, 2:, 2:]))
    beats = np.flatnonzero(joint < largest - 1e-12)
    acc = montecarlo.CensusAccumulator(
        generated=count,
        accepted=int(np.count_nonzero(v.physical)),
        separable=len(M),
    )
    where = (start + index[separable][beats[:3]]).tolist()
    return montecarlo._BlockOut(acc=acc, extra=(beats.size, tuple(zip(where, M[beats[:3]]))))


class TestEntropyProbe:
    def test_no_violations_among_separable_samples(self) -> None:
        # Joint entropy below a marginal entropy certifies entanglement,
        # so a population filtered by an exact separability test must
        # come up empty.
        cfg = SamplerConfig(k=10.0, l=5.0, samples=200_000, seed=3)
        report = run_entropy_probe(cfg)
        assert report.generated == 200_000
        assert report.physical == 24_640
        assert report.separable == 23_770
        assert report.violations == 0
        assert report.example_indices == ()
        assert report.examples == ()

    def test_reproducible_across_workers(self) -> None:
        cfg = SamplerConfig(k=10.0, l=5.0, samples=100_000, seed=3)
        first = run_entropy_probe(cfg)
        second = run_entropy_probe(cfg, workers=2)
        assert isinstance(first, EntropyReport)
        assert first.generated == second.generated
        assert first.physical == second.physical
        assert first.separable == second.separable
        assert first.violations == second.violations
        assert first.example_indices == second.example_indices
        assert len(first.examples) == len(second.examples) <= 3
        for a, b in zip(first.examples, second.examples):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_full_classify(self, monkeypatch, flip) -> None:
        # With the entropy negated, most separable samples count as
        # violations, so the kept examples are compared too.
        if flip:
            entropy = states.entropy
            monkeypatch.setattr(states, "entropy", lambda M: -entropy(M))
        cfg = SamplerConfig(k=10.0, l=5.0, samples=140_000, seed=3)
        ours = run_entropy_probe(cfg)
        with monkeypatch.context() as m:
            m.setattr(montecarlo, "_entropy_block", _classify_entropy_block)
            reference = run_entropy_probe(cfg)
        assert ours.generated == reference.generated == 140_000
        assert ours.physical == reference.physical
        assert ours.separable == reference.separable
        assert ours.violations == reference.violations
        assert ours.example_indices == reference.example_indices
        assert len(ours.examples) == len(reference.examples) == (3 if flip else 0)
        for a, b in zip(ours.examples, reference.examples):
            assert np.array_equal(a, b)
        # Violations have their own count; the classical count stays 0.
        out = montecarlo._entropy_block((cfg.seed, 0, BLOCK, cfg.k, cfg.l))
        assert out.acc.classical == 0
        assert (out.extra[0] > 0) == flip

    def test_skips_form_two_solve(self, monkeypatch) -> None:
        calls = []
        solve = criteria.to_standard_form_two

        def counted(*args, **kwargs):
            calls.append(1)
            return solve(*args, **kwargs)

        monkeypatch.setattr(criteria, "to_standard_form_two", counted)
        cfg = SamplerConfig(k=10.0, l=5.0, samples=70_000, seed=3)
        run_entropy_probe(cfg)
        assert calls == []
        # The wrapper does see the solves of the full classify.
        monkeypatch.setattr(montecarlo, "_entropy_block", _classify_entropy_block)
        run_entropy_probe(cfg)
        assert calls
