"""Weighted Monte Carlo censuses over random covariance matrices.

Samples are drawn from per-index counter-based substreams, processed in
fixed blocks, and folded in block order, so results are identical for
any worker count.  A block's partial census and a whole census are one
record, CensusResult, and folding is its merge.  All weighted tallies
are kept in the log domain with streaming log-sum-exp accumulators.
"""

from __future__ import annotations

import collections
import itertools
import math
import sys
import time
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from . import criteria, measures, states
from .rng import (
    BLOCK,
    _check_seed,
    grid_stream,
    grid_uniforms,
    substream_uniforms,
    third_block_uniforms,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SamplerConfig",
    "LogSumExp",
    "MeasureTally",
    "CensusResult",
    "OneModePoint",
    "EntropyReport",
    "run_classical_census",
    "run_classical_sweep",
    "run_bures_census",
    "run_one_mode_classicality",
    "run_entropy_probe",
]

# The largest box bound m = max(k, l) at which no sample's determinant
# can overflow float64, per mode count.  Every entry of an n-mode sample
# lies in [-m, m], so each of the (2n)! signed products in the Leibniz
# sum for det M is at most m**(2n) in size: |det M| <= 2 m**2 for one
# mode and <= 24 m**4 for two.  Each leading minor and each partial
# product of LU pivots is a smaller determinant of the same kind and
# obeys the same bound, so m <= (DBL_MAX / (2n)!)**(1 / 2n): about
# 9.5e153 for one mode and 5.2e76 for two.
_MAX_BOUND = {n: (sys.float_info.max / math.factorial(2 * n)) ** (0.5 / n) for n in (1, 2)}


@dataclass(frozen=True)
class SamplerConfig:
    """Box bounds, sample budget, and stream seed for one census.

    The mode count is the driver's: each census driver checks the box
    against the determinant overflow bound of its own mode count.
    """

    k: float
    l: float
    samples: int
    seed: int

    def __post_init__(self):
        if not (math.isfinite(self.k) and math.isfinite(self.l)):
            raise ValueError(f"bounds k and l must be finite, got k={self.k!r}, l={self.l!r}")
        if not (self.k > 0.0 and self.l > 0.0):
            raise ValueError("bounds k and l must be positive")
        if self.samples < 0:
            raise ValueError("sample count must be nonnegative")
        if self.samples > 2**64:
            raise ValueError(f"sample count must be at most 2**64, the range of sample "
                             f"indices, got {self.samples}")
        _check_seed(self.seed)


def _check_bound(m: float, mode_count: int) -> None:
    if m > _MAX_BOUND[mode_count]:
        raise ValueError(f"max(k, l) = {m!r} is above {_MAX_BOUND[mode_count]:.3g}, where "
                         f"a {mode_count}-mode determinant can overflow")


@dataclass
class LogSumExp:
    """Streaming log-sum-exp: tracks log(sum of exp(x_i)) exactly once."""

    log_max: float = -math.inf
    sum_scaled: float = 0.0

    def add_array(self, xs) -> None:
        xs = np.asarray(xs, dtype=float)
        if xs.size == 0:
            return
        m = float(xs.max())
        if not math.isfinite(m) or not np.isfinite(xs).all():
            raise ValueError("nonfinite log weight in batch")
        if m <= self.log_max:
            self.sum_scaled += float(np.exp(xs - self.log_max).sum())
        else:
            scale = math.exp(self.log_max - m) if self.sum_scaled else 0.0
            self.sum_scaled = self.sum_scaled * scale + float(np.exp(xs - m).sum())
            self.log_max = m

    def merge(self, other: "LogSumExp") -> None:
        if other.sum_scaled == 0.0:
            return
        if other.log_max <= self.log_max:
            self.sum_scaled += other.sum_scaled * math.exp(other.log_max - self.log_max)
        else:
            scale = math.exp(self.log_max - other.log_max) if self.sum_scaled else 0.0
            self.sum_scaled = self.sum_scaled * scale + other.sum_scaled
            self.log_max = other.log_max

    def log_total(self) -> float:
        if self.sum_scaled == 0.0:
            return -math.inf
        return self.log_max + math.log(self.sum_scaled)


@dataclass
class MeasureTally:
    """Log-weighted totals for one measure: all, separable, classical.

    Next to each sum of weights (acc, sep, cls) it keeps the sum of the
    squared weights (acc_sq, sep_sq, cls_sq), fed twice the log weights,
    from which CensusResult.stderr takes the error bar.
    """

    acc: LogSumExp = field(default_factory=LogSumExp)
    sep: LogSumExp = field(default_factory=LogSumExp)
    cls: LogSumExp = field(default_factory=LogSumExp)
    acc_sq: LogSumExp = field(default_factory=LogSumExp)
    sep_sq: LogSumExp = field(default_factory=LogSumExp)
    cls_sq: LogSumExp = field(default_factory=LogSumExp)

    def merge(self, other: "MeasureTally") -> None:
        for f in fields(self):
            getattr(self, f.name).merge(getattr(other, f.name))


@dataclass
class CensusResult:
    """One census: stage counts, per-measure tallies and the run config.

    A block's partial census and a whole census are the same record:
    each block fills one in place and merge folds them, so it is
    mutable, and the fold stamps each census's record with its config
    and wall time.  merge sums every int field, so a new count is one
    declaration.  The counts of a two-mode census satisfy classical <=
    separable <= accepted <= generated; a one-mode census counts no
    sample separable.
    """

    config: SamplerConfig | None = None
    generated: int = 0
    accepted: int = 0
    separable: int = 0
    classical: int = 0
    discarded_grids: int = 0
    solver_failures: int = 0
    numerical_faults: int = 0
    ordering_faults: int = 0
    measures: dict = field(default_factory=dict)
    wall_time: float = 0.0

    def tally(self, measure: str) -> MeasureTally:
        t = self.measures.get(measure)
        if t is None:
            t = self.measures[measure] = MeasureTally()
        return t

    def add(self, weights: dict, separable: np.ndarray, classical: np.ndarray) -> None:
        """Fold in a population of samples.

        weights maps each measure key to the population's log weights,
        one per sample; separable and classical are boolean masks over
        the same samples.  Counts the separable and classical samples
        and tallies each measure's weights and squared weights over all,
        separable and classical samples.
        """
        self.separable += int(np.count_nonzero(separable))
        self.classical += int(np.count_nonzero(classical))
        for key, lw in weights.items():
            tally = self.tally(key)
            for part, x in (("acc", lw), ("sep", lw[separable]), ("cls", lw[classical])):
                getattr(tally, part).add_array(x)
                getattr(tally, part + "_sq").add_array(2.0 * x)

    def merge(self, other: "CensusResult") -> None:
        for f in fields(self):
            if f.type == "int":  # a string: annotations are postponed
                setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for key, tally in other.measures.items():
            self.tally(key).merge(tally)

    def _ratio(self, measure: str, part: str) -> float:
        tally = self.measures.get(measure)
        if tally is None:
            raise KeyError(f"no measure {measure!r} in this result")
        denom = tally.acc.log_total()
        if denom == -math.inf:
            raise ValueError("no accepted samples: probability undefined")
        num = getattr(tally, part).log_total()
        return math.exp(num - denom) if num > -math.inf else 0.0

    def stderr(self, measure: str, part: str) -> float:
        """Delta-method standard error of the weighted probability p.

        p = S/W is the share of the weight W of all samples that lies in
        part ("sep" or "cls"), S; with the sums of squared weights W2 and
        S2, the variance is ((1 - p)^2 S2 + p^2 (W2 - S2)) / W^2.
        """
        p = self._ratio(measure, part)
        tally = self.measures[measure]
        la = tally.acc.log_total()
        lp2 = getattr(tally, part + "_sq").log_total()
        s2a = math.exp(tally.acc_sq.log_total() - 2.0 * la)
        s2p = math.exp(lp2 - 2.0 * la) if lp2 > -math.inf else 0.0
        var = (1.0 - p) ** 2 * s2p + p * p * (s2a - s2p)
        return math.sqrt(max(var, 0.0))

    def prob_sep(self, measure: str = "fisher") -> float:
        return self._ratio(measure, "sep")

    def prob_classical(self, measure: str = "fisher") -> float:
        return self._ratio(measure, "cls")

    def measure_names(self) -> tuple:
        return tuple(self.measures)


@dataclass(frozen=True, eq=False)
class OneModePoint:
    """Weighted one-mode classicality estimate at one box size."""

    k: float
    l: float
    samples: int
    physical: int
    classical: int
    prob_classical: float
    stderr: float


@dataclass(frozen=True, eq=False)
class EntropyReport:
    """Tally of separable states beating their largest marginal entropy."""

    generated: int
    physical: int
    separable: int
    violations: int
    example_indices: tuple
    examples: tuple


# For each of the 16 matrix entries (row-major), which of a sample's ten
# values it holds: 0-3 the diagonal, 4-9 the off-diagonal pairs (0, 1),
# (0, 2), (0, 3), (1, 2), (1, 3) and (2, 3).  The leading 3x3 submatrix
# holds values from a sample's first eight only.
_ENTRY_COLUMNS = np.array([0, 4, 5, 6, 4, 1, 7, 8, 5, 7, 2, 9, 6, 8, 9, 3])


def _values(u: np.ndarray, k: float, l: float) -> np.ndarray:
    # The distinct entries of the samples in the columns of u, one value
    # per row: k*u on the diagonal rows 0-3, -l + 2l*u on the
    # off-diagonal rows from 4 on.
    values = np.empty(u.shape)
    values[:4] = k * u[:4]
    values[4:] = -l + 2.0 * l * u[4:]
    return values


def _build_matrices(u: np.ndarray, k: float, l: float) -> np.ndarray:
    # The C-contiguous (S, 4, 4) stack of the samples in the S columns of
    # the (10, S) uniforms u: one gather of whole rows of their values,
    # then one transposing copy.
    entries = np.take(_values(u, k, l), _ENTRY_COLUMNS, axis=0)
    return np.ascontiguousarray(entries.T).reshape(-1, 4, 4)


def _candidates(seed: int, start: int, count: int, k: float, l: float,
                tol: Tolerances) -> tuple:
    # The front of every two-mode block: the block positions and matrices
    # of the samples that survive the leading minors H2 = det A - 1 and
    # H3 = D3 - M22 of M + i*Omega (H1 = M00 >= 0 cannot fail).  A sample
    # leaves where one surely fails tol.physical_min_eig, by the floors
    # of states._minor_bands at s = 1 + max(k, l).  That s bounds every
    # sample's own, so no sample that states.is_physical accepts leaves.
    # Uniforms 0-7 (counter blocks 0 and 1) hold the diagonal and the
    # pairs (0,1), (0,2), (0,3), (1,2), which decide H2 and H3; uniforms
    # 8-9 are drawn for the survivors only.  Above states._CLOSED_SCALE
    # every sample survives.
    # u shrinks as samples leave, and no index array is made for the
    # whole block: with either kept to the end, glibc returned and
    # faulted in again about 9 MB of heap per k = l = 15 block.
    u = substream_uniforms(seed, start, count, width=8).T
    s = 1.0 + max(k, l)
    if s > states._CLOSED_SCALE:
        index = np.arange(count)
    else:
        _, (_, floor2), (_, floor3), _ = states._minor_bands(s, tol.physical_min_eig)
        m00, m10 = k * u[0], -l + 2.0 * l * u[4]
        det_a = m00 * (k * u[1]) - m10 * m10
        index = np.flatnonzero(det_a - 1.0 >= -floor2)
        u, det_a = np.take(u, index, axis=1), det_a[index]
        v = _values(u, k, l)
        d3, _, _ = states._minor3(v[0], v[4], v[1], v[5], v[7], v[2], det_a)
        keep = d3 - v[2] >= -floor3
        index, u = index[keep], u[:, keep]
    full = np.empty((10, index.size))
    full[:8] = u
    full[8:] = third_block_uniforms(seed, index.astype(np.uint64) + np.uint64(start)).T
    return index, _build_matrices(full, k, l)


def _grids(seed: int, index: np.ndarray, grid_size: int, n_grids: int,
           lo: float, hi: float, tol: Tolerances) -> np.ndarray:
    # The (len(index), n_grids, grid_size) coordinates that n_grids calls
    # of measures.random_grid draw from each sample's grid stream.  All
    # are taken from one Philox pass over the head of the streams, with
    # numpy's own uniform arithmetic; a sample with a coordinate gap
    # below tol.grid_coincidence in any of its grids would have redrawn
    # that grid and shifted the later ones, so it is drawn again whole
    # from its stream.
    # u holds one contiguous row per coordinate; the volume stage gets
    # the coordinates C-contiguous, one sample's grids after another.
    u = grid_uniforms(seed, index, n_grids * grid_size).T
    coords = np.ascontiguousarray((lo + (hi - lo) * u).T).reshape(len(index), n_grids, grid_size)
    coords.sort(axis=-1)
    gaps = np.diff(coords, axis=-1).min(axis=-1, initial=np.inf)
    for i in np.flatnonzero(~(gaps >= tol.grid_coincidence).all(axis=-1)):
        stream = grid_stream(seed, index[i])
        for g in range(n_grids):
            coords[i, g] = measures.random_grid(grid_size, stream, lo, hi, tol)
    return coords


def _census_block(cfg: SamplerConfig, start: int, count: int, volume: tuple) -> tuple:
    # One two-mode census block: the front end, one stacked classify of
    # its survivors, the Jeffreys weight and, when volume holds the grid
    # size and count, the grid range, and the metric kinds and
    # estimators, the volume-element stage.  A survivor is accepted when
    # classify finds it physical and solved by form I and form II; only
    # the accepted get a determinant.  With volume empty (the Jeffreys
    # census) no grid is drawn and no sample is discarded.  The block's
    # first oracle disagreement, in sample order, is raised.
    tol = DEFAULT
    index, M = _candidates(cfg.seed, start, count, cfg.k, cfg.l, tol)
    verdict = criteria.classify(M, tol)
    ok = verdict.physical & (verdict.failure == 0)
    census = CensusResult(
        generated=count,
        accepted=int(np.count_nonzero(ok)),
        solver_failures=int(np.count_nonzero(verdict.physical & (verdict.failure != 0))),
    )
    # log det(M)^(-5/2) of the accepted samples through math.log, which
    # np.log does not match in the last bit on a few inputs in a
    # thousand.  np.linalg.det factors each matrix of a stack on its own.
    det = np.linalg.det(M[ok])
    weights = {"fisher": -2.5 * np.fromiter(map(math.log, det.tolist()), float, det.size)}
    sep, cls = verdict.separable[ok], verdict.classical[ok]
    if volume:
        grid_size, n_grids, lo, hi, kinds, estimators = volume
        coords = _grids(cfg.seed, start + index[ok], grid_size, n_grids, lo, hi, tol)
        discarded, logs = measures._volume_logs(M[ok], coords, kinds, tol)
        census.discarded_grids = int(np.count_nonzero(discarded))
        finite = np.ones(len(coords), dtype=bool)
        for kind in kinds:
            finite &= np.isfinite(logs[kind]).all(axis=-1)
        census.numerical_faults = int(np.count_nonzero(~discarded & ~finite))
        good = ~discarded & finite
        logs = {kind: v[good] for kind, v in logs.items()}
        if all(kind in kinds for kind in ("bures", "kubo_mori", "maximal")):
            vb, vk, vm = logs["bures"], logs["kubo_mori"], logs["maximal"]
            slack = 1e-9 * np.maximum(1.0, np.abs(vk))
            census.ordering_faults = int(np.count_nonzero((vb > vk + slack) | (vk > vm + slack)))
        weights["fisher"] = weights["fisher"][good]
        sep, cls = sep[good], cls[good]
        for kind in kinds:
            est = measures.VolumeEstimate.from_log_volumes(logs[kind], kind)
            for name in estimators:
                weights[f"{kind}:{name}"] = getattr(est, name)
    census.add(weights, sep, cls)
    flagged = np.flatnonzero(criteria.disagrees(verdict, tol) & ok)
    if flagged.size:
        i = flagged[0]
        raise criteria.OracleDisagreementError(M[i], float(verdict.margin_sep[i]),
                                               float(verdict.margin_ppt[i]))
    return census, None


def _one_mode_block(cfg: SamplerConfig, start: int, count: int) -> tuple:
    k, l = cfg.k, cfg.l
    u = substream_uniforms(cfg.seed, start, count, width=3).T
    d1 = k * u[0]
    d2 = k * u[1]
    off = -l + 2.0 * l * u[2]
    det = d1 * d2 - off * off
    phys = det >= 1.0 - 1e-10
    # closed-form min eig(A - I) for the symmetric 2x2 sample
    shifted = 0.5 * (d1 + d2) - 1.0 - np.sqrt(0.25 * (d1 - d2) ** 2 + off * off)
    classical = phys & (shifted > DEFAULT.classical_min_eig)
    census = CensusResult(generated=count, accepted=int(np.count_nonzero(phys)))
    # One mode has no bipartition: no sample is counted separable.
    cls = classical[phys]
    census.add({"fisher": -1.5 * np.log(det[phys])}, np.zeros_like(cls), cls)
    return census, None


def _entropy_block(cfg: SamplerConfig, start: int, count: int) -> tuple:
    tol = DEFAULT
    # Only the physicality gate and the mirror oracle's verdict, both in
    # closed form: no form-I or form-II solve.
    index, M = _candidates(cfg.seed, start, count, cfg.k, cfg.l, tol)
    physical = states.is_physical(M, tol)
    separable = physical.copy()
    separable[physical] = criteria._is_ppt(M[physical], tol)
    M = M[separable]
    joint = states.entropy(M)
    largest = np.maximum(states.entropy(M[:, :2, :2]), states.entropy(M[:, 2:, 2:]))
    beats = np.flatnonzero(joint < largest - 1e-12)
    census = CensusResult(generated=count, accepted=int(np.count_nonzero(physical)),
                          separable=len(M))
    # The violation count and the block's first three violations with
    # their sample indices.
    where = (start + index[separable][beats[:3]]).tolist()
    return census, (beats.size, tuple(zip(where, M[beats[:3]])))


def _in_order(pool: ProcessPoolExecutor, runner: Callable, argses: Iterable,
              depth: int) -> Iterator:
    # pool.map(runner, *zip(*argses)), which submits every call up
    # front, with at most depth calls submitted and not yet taken.
    pending: collections.deque = collections.deque()
    for args in argses:
        pending.append(pool.submit(runner, *args))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _fold(
    runner: Callable,
    cfgs: list[SamplerConfig],
    workers: int,
    progress: Sequence[Callable | None],
    *stage,
) -> Iterator[tuple[CensusResult, list]]:
    # Each config's census and its blocks' extras in block order, one
    # census after another.  A block is runner(cfg, start, count,
    # *stage) and returns its partial census and its extra; the
    # arguments are made as blocks are submitted, since a census may
    # have 2**48 blocks.  Each census is stamped with its config and
    # its wall time from the first block.  The blocks of every census go
    # through one pool in order, at most two per process ahead of the
    # fold, so with a pool the blocks of later censuses run while
    # earlier ones are folded.  A block that raises stops the fold
    # there; closing the generator early shuts the pool down with its
    # pending blocks cancelled.
    t0 = time.perf_counter()
    blocks = [-(-cfg.samples // BLOCK) for cfg in cfgs]
    argses = ((cfg, start, min(BLOCK, cfg.samples - start), *stage)
              for cfg in cfgs for start in range(0, cfg.samples, BLOCK))
    pool = None
    try:
        if workers > 1 and sum(blocks) > 1:
            # A forked pool starts all its workers at the first submit, so
            # it gets no more than there are blocks.
            size = min(workers, sum(blocks))
            pool = ProcessPoolExecutor(max_workers=size)
            outs = _in_order(pool, runner, argses, 2 * size)
        else:
            outs = itertools.starmap(runner, argses)
        for cfg, count, report in zip(cfgs, blocks, progress):
            total = CensusResult(config=cfg)
            extras: list = []
            for part, extra in itertools.islice(outs, count):
                total.merge(part)
                extras.append(extra)
                if report is not None:
                    report(total.generated, total.accepted)
            total.wall_time = time.perf_counter() - t0
            yield total, extras
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _two_mode_censuses(cfgs: list, workers: int, progress: Sequence[Callable | None],
                       volume: tuple = ()) -> Iterator[CensusResult]:
    # Both two-mode censuses, one result per config as its last block is
    # folded; volume is _census_block's.  Every measure gets its tally,
    # even when nothing was accepted.
    keys = ["fisher"]
    if volume:
        kinds, estimators = volume[4:]
        keys += [f"{kind}:{name}" for kind in kinds for name in estimators]
    with closing(_fold(_census_block, cfgs, workers, progress, volume)) as folds:
        for total, _ in folds:
            for key in keys:
                total.tally(key)
            yield total


def run_classical_sweep(
    cfgs: Iterable[SamplerConfig],
    workers: int = 1,
    progress: Sequence[Callable | None] | None = None,
) -> Iterator[CensusResult]:
    """The census of run_classical_census for each config of a sweep.

    Yields one result per config, in order, as its last block is
    folded; each is the result run_classical_census gives for that
    config alone, wall_time aside.  With workers > 1 the blocks of
    every config go through one pool of min(workers, total blocks)
    processes, so later configs run while earlier ones are folded.  A
    result's wall_time counts from the start of the sweep.  progress,
    when given, holds one callback (or None) per config.  An oracle
    disagreement is raised at the first flagged block in (config, block)
    order; closing the iterator early shuts the pool down with its
    pending blocks cancelled.
    """
    cfgs = list(cfgs)
    for cfg in cfgs:
        _check_bound(max(cfg.k, cfg.l), 2)
    if progress is None:
        progress = [None] * len(cfgs)
    if len(progress) != len(cfgs):
        raise ValueError(f"{len(progress)} progress callbacks for {len(cfgs)} configs")
    return _two_mode_censuses(cfgs, workers, progress)


def run_classical_census(
    cfg: SamplerConfig,
    workers: int = 1,
    progress: Callable | None = None,
) -> CensusResult:
    """Filter-chain census with Jeffreys weights and the mirror oracle.

    Each sample runs the physicality gate M + i*Omega >= 0, so the
    population is exactly the physical states (less any form-I or
    form-II solver failures, which are counted);
    the survivors get separability and classicality verdicts under the
    det(M)^(-5/2) weight.  A verdict conflict with the mirror oracle
    outside the boundary band aborts the run.  This is the volume-element
    census below with no grids, and the one-config case of
    run_classical_sweep.
    """
    (result,) = run_classical_sweep([cfg], workers, [progress])
    return result


def run_bures_census(
    cfg: SamplerConfig,
    grid_size: int = 5,
    n_grids: int = 5,
    grid_range: tuple[float, float] = (-2.0, 2.0),
    metric_kinds: tuple[str, ...] = ("bures",),
    estimators: tuple[str, ...] = measures.ESTIMATORS,
    workers: int = 1,
    progress: Callable | None = None,
) -> CensusResult:
    """Volume-element census over random kernel grids.

    Chain-accepted samples get robust volume elements from n_grids
    random grids; any grid rejection discards the sample.  Survivors
    carry one weighted tally per metric/estimator pair plus the Fisher
    weight evaluated on the same surviving population, so the population
    is identical across all reported measures.  With no metric kinds no
    grid is drawn, and the result is run_classical_census's.
    """
    _check_bound(max(cfg.k, cfg.l), 2)
    for kind in metric_kinds:
        if kind not in measures.METRIC_KINDS:
            raise ValueError(f"unknown metric kind {kind!r}")
    for name in estimators:
        if name not in measures.ESTIMATORS:
            raise ValueError(f"unknown robust estimator {name!r}")
    if grid_size < 1:
        raise ValueError(f"grid_size must be at least 1, got {grid_size!r}")
    if n_grids < 1:
        raise ValueError(f"n_grids must be at least 1, got {n_grids!r}")
    lo, hi = float(grid_range[0]), float(grid_range[1])
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise ValueError(f"grid range ({lo!r}, {hi!r}) and its width must be finite")
    if not hi > lo:
        raise ValueError("empty grid range")
    # Narrower ranges cannot hold grid_size coordinates that far apart.
    if not hi - lo > (grid_size - 1) * DEFAULT.grid_coincidence:
        raise ValueError(f"grid range ({lo!r}, {hi!r}) is too narrow for {grid_size} "
                         f"coordinates {DEFAULT.grid_coincidence!r} apart")
    if not metric_kinds:
        # The Fisher weight alone needs no grid, so no sample is discarded.
        return run_classical_census(cfg, workers, progress)
    volume = (grid_size, n_grids, lo, hi, tuple(metric_kinds), tuple(estimators))
    (result,) = _two_mode_censuses([cfg], workers, [progress], volume)
    return result


def run_one_mode_classicality(
    cfg: SamplerConfig,
    ks: Iterable[float] | None = None,
    workers: int = 1,
    progress: Callable | None = None,
) -> list[OneModePoint]:
    """Jeffreys-weighted classicality probability along a k schedule.

    2x2 matrices with diagonals on [0, k] and one off-diagonal on
    [-l, l]; the population is the physical states (det >= 1), weighted
    by det^(-3/2); classical means A - I positive definite.  The l bound
    scales with k, keeping the box shape of the base config, and the
    same substreams drive every k so the trend comparison rides on
    common random numbers.  The standard error is CensusResult.stderr
    of the classical share.
    """
    schedule = tuple(ks) if ks is not None else (cfg.k,)
    if not schedule:
        raise ValueError("the k schedule is empty")
    ratio = cfg.l / cfg.k
    boxes = []
    for k in schedule:
        if not (k > 0.0 and math.isfinite(k)):
            raise ValueError(f"k schedule entries must be positive and finite, got {k!r}")
        _check_bound(max(k, ratio * k), 1)
        boxes.append(replace(cfg, k=k, l=ratio * k))
    points = []
    for total, _ in _fold(_one_mode_block, boxes, workers, [progress] * len(boxes)):
        p = se = 0.0
        if total.accepted:
            p, se = total.prob_classical(), total.stderr("fisher", "cls")
        box = total.config
        points.append(OneModePoint(float(box.k), float(box.l), cfg.samples, total.accepted,
                                   total.classical, p, se))
    return points


def run_entropy_probe(
    cfg: SamplerConfig,
    workers: int = 1,
    progress: Callable | None = None,
) -> EntropyReport:
    """Count separable states whose joint entropy beats a marginal.

    Population: strictly physical samples (uncertainty relation by
    eigenvalue test).  Separability is decided by the mirror oracle.
    A violation is S(joint) < max(S(mode 1), S(mode 2)); the first three
    violating matrices are kept with their sample indices.
    """
    _check_bound(max(cfg.k, cfg.l), 2)
    ((total, extras),) = _fold(_entropy_block, [cfg], workers, [progress])
    examples = [example for _, found in extras for example in found][:3]
    return EntropyReport(
        generated=total.generated,
        physical=total.accepted,
        separable=total.separable,
        violations=sum(count for count, _ in extras),
        example_indices=tuple(i for i, _ in examples),
        examples=tuple(m for _, m in examples),
    )

