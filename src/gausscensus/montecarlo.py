"""Weighted Monte Carlo censuses over random covariance matrices.

Samples are drawn from per-index counter-based substreams, processed in
fixed blocks, and folded in block order, so results are identical for
any worker count.  All weighted tallies are kept in the log domain with
streaming log-sum-exp accumulators.
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from contextlib import closing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
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
    "CensusAccumulator",
    "CensusResult",
    "OneModePoint",
    "EntropyReport",
    "run_classical_census",
    "run_classical_sweep",
    "run_bures_census",
    "run_one_mode_classicality",
    "run_entropy_probe",
]

_PROGRESS_EVERY = 4

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
    """Box bounds, sample budget, and stream seed for one census."""

    k: float
    l: float
    samples: int
    seed: int
    mode_count: int = 2

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
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 or 2")
        _check_bound(max(self.k, self.l), self.mode_count)
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
    """Log-weighted totals for one measure: all, separable, classical."""

    acc: LogSumExp = field(default_factory=LogSumExp)
    sep: LogSumExp = field(default_factory=LogSumExp)
    cls: LogSumExp = field(default_factory=LogSumExp)

    def merge(self, other: "MeasureTally") -> None:
        self.acc.merge(other.acc)
        self.sep.merge(other.sep)
        self.cls.merge(other.cls)


@dataclass
class CensusAccumulator:
    """Mergeable census state: stage counts plus per-measure tallies.

    Counts satisfy classical <= separable <= accepted <= generated.
    """

    generated: int = 0
    accepted: int = 0
    separable: int = 0
    classical: int = 0
    discarded_grids: int = 0
    solver_failures: int = 0
    numerical_faults: int = 0
    ordering_faults: int = 0
    measures: dict = field(default_factory=dict)

    def tally(self, measure: str) -> MeasureTally:
        t = self.measures.get(measure)
        if t is None:
            t = self.measures[measure] = MeasureTally()
        return t

    def merge(self, other: "CensusAccumulator") -> None:
        self.generated += other.generated
        self.accepted += other.accepted
        self.separable += other.separable
        self.classical += other.classical
        self.discarded_grids += other.discarded_grids
        self.solver_failures += other.solver_failures
        self.numerical_faults += other.numerical_faults
        self.ordering_faults += other.ordering_faults
        for key, tally in other.measures.items():
            self.tally(key).merge(tally)


@dataclass(frozen=True)
class CensusResult:
    """Counts, per-measure weighted probabilities, and the run config."""

    config: SamplerConfig
    generated: int
    accepted: int
    separable: int
    classical: int
    discarded_grids: int
    solver_failures: int
    measures: dict
    wall_time: float
    numerical_faults: int = 0
    ordering_faults: int = 0

    def _ratio(self, measure: str, part: str) -> float:
        tally = self.measures.get(measure)
        if tally is None:
            raise KeyError(f"no measure {measure!r} in this result")
        denom = tally.acc.log_total()
        if denom == -math.inf:
            raise ValueError("no accepted samples: probability undefined")
        num = getattr(tally, part).log_total()
        return math.exp(num - denom) if num > -math.inf else 0.0

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


@dataclass
class _BlockOut:
    acc: CensusAccumulator
    disagreement: tuple | None = None
    extra: tuple | None = None


# For each of the 16 matrix entries (row-major), which of a sample's ten
# values it holds: 0-3 the diagonal, 4-9 the off-diagonal pairs (0, 1),
# (0, 2), (0, 3), (1, 2), (1, 3) and (2, 3).  The leading 3x3 submatrix
# holds values from a sample's first eight only.
_ENTRY_COLUMNS = np.array([0, 4, 5, 6, 4, 1, 7, 8, 5, 7, 2, 9, 6, 8, 9, 3])


def _values(u: np.ndarray, k: float, l: float) -> np.ndarray:
    # A sample's distinct entries: k*u on the diagonal columns 0-3,
    # -l + 2l*u on the off-diagonal columns from 4 on.
    values = np.empty(u.shape)
    values[:, :4] = k * u[:, :4]
    values[:, 4:] = -l + 2.0 * l * u[:, 4:]
    return values


def _leading(values: np.ndarray, n: int) -> np.ndarray:
    # Each row's leading n x n submatrix, by one gather from its values:
    # each array is read once, in row order.
    columns = _ENTRY_COLUMNS.reshape(4, 4)[:n, :n].ravel()
    return np.take(values, columns, axis=1).reshape(len(values), n, n)


def _build_matrices(u: np.ndarray, k: float, l: float) -> np.ndarray:
    return _leading(_values(u, k, l), 4)


# Leading minors decided in closed form.  Let u = 2**-53, g_j = j*u/(1 - j*u)
# and m bound the |entries|; n is 3 or 4.
# - np.linalg.det takes its sign from LAPACK's LU with partial pivoting:
#   the pivot signs give the sign of det(A + E) exactly, where |E| <= g_n
#   |L||U| with |l_ij| <= 1 and |u_ij| <= 2**(n-1) m (the growth bound),
#   so |E_ij| <= g_n n 2**(n-1) m (Higham, Accuracy and Stability of
#   Numerical Algorithms, Thm 9.3).  Over the n! terms of the Leibniz
#   sum, |det(A + E) - det A| <= n! n max|E_ij| m**(n-1) to first order:
#   7.2e-14 m**3 and 1.36e-12 m**4.
# - The closed form sums 6 (n = 3) or 24 (n = 4) monomials of size at
#   most m**n, each through at most 5 or 10 roundings, so it errs by at
#   most g_5 6 m**3 = 3.3e-15 m**3 or g_10 24 m**4 = 2.7e-14 m**4.
# Where |closed form| > tau_n m**n, with tau_3 = 1e-11 and tau_4 = 1e-10
# (about 130 and 70 times the two errors together), both signs are the
# sign of det A; rows inside the band take LAPACK's sign.  For m outside
# _SIGN_SCALES a product could overflow, or underflow (here or in the
# value np.linalg.det returns) by more than the band allows, so every
# row takes LAPACK's sign.
_SIGN_BAND = {3: 1e-11, 4: 1e-10}
_SIGN_SCALES = (1e-60, 1e60)


def _closed_minor(values: np.ndarray, n: int) -> np.ndarray:
    # The leading n x n minor of each row's matrix from its values.
    m00, m11, m22 = values[:, 0], values[:, 1], values[:, 2]
    m01, m02, m12 = values[:, 4], values[:, 5], values[:, 7]
    if n == 3:
        return (m00 * (m11 * m22 - m12 * m12) - m01 * (m01 * m22 - m02 * m12)
                + m02 * (m01 * m12 - m02 * m11))
    m33, m03, m13, m23 = values[:, 3], values[:, 6], values[:, 8], values[:, 9]
    # Laplace expansion over the 2x2 minors of rows 0-1 (s) and 2-3 (t).
    s01 = m00 * m11 - m01 * m01
    s02 = m00 * m12 - m02 * m01
    s03 = m00 * m13 - m03 * m01
    s12 = m01 * m12 - m02 * m11
    s13 = m01 * m13 - m03 * m11
    s23 = m02 * m13 - m03 * m12
    t01 = m02 * m13 - m12 * m03
    t02 = m02 * m23 - m22 * m03
    t03 = m02 * m33 - m23 * m03
    t12 = m12 * m23 - m22 * m13
    t13 = m12 * m33 - m23 * m13
    t23 = m22 * m33 - m23 * m23
    return s01 * t23 - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02 + s23 * t01


def _minor_positive(values: np.ndarray, n: int, scale: float) -> np.ndarray:
    # Whether each row's leading n x n minor is positive, as
    # np.linalg.det(...) > 0 decides it; scale bounds the |entries|.
    if _SIGN_SCALES[0] <= scale <= _SIGN_SCALES[1]:
        minor = _closed_minor(values, n)
        band = _SIGN_BAND[n] * scale ** n
        positive = minor > band
        unsure = np.flatnonzero(~(np.abs(minor) > band))
    else:
        positive = np.zeros(len(values), dtype=bool)
        unsure = np.arange(len(values))
    if unsure.size:
        positive[unsure] = np.linalg.det(_leading(values[unsure], n)) > 0.0
    return positive


def _block_ranges(samples: int) -> list[tuple[int, int]]:
    return [(s, min(BLOCK, samples - s)) for s in range(0, samples, BLOCK)]


def _candidates(seed: int, start: int, count: int, k: float, l: float) -> tuple:
    # The front of every two-mode block: Sylvester's screen (leading
    # minors 1..4 positive) taken as soon as a minor's uniforms exist.
    # Uniforms 0-7 (counter blocks 0 and 1) hold the diagonal and the
    # pairs (0,1), (0,2), (0,3), (1,2), so they decide the 2x2 and 3x3
    # minors; uniforms 8-9 are drawn for the 3x3 survivors only.  The 3x3
    # and 4x4 signs come from _minor_positive, which calls LAPACK only
    # on rows in its rounding band; matrices are built, and their
    # determinants taken by np.linalg.det one matrix at a time, for the
    # candidates only.  Returns the candidates' block positions,
    # matrices and determinants (reused for the Jeffreys weight).
    u = substream_uniforms(seed, start, count, width=8)
    m00 = k * u[:, 0]
    m01 = -l + 2.0 * l * u[:, 4]
    d2 = m00 * (k * u[:, 1]) - m01 ** 2
    idx = np.flatnonzero((m00 > 0.0) & (d2 > 0.0))
    # Every entry lies in [-max(k, l), max(k, l)].
    scale = max(k, l)
    if idx.size:
        u = u[idx]
        keep = _minor_positive(_values(u, k, l), 3, scale)
        idx, u = idx[keep], u[keep]
    if not idx.size:
        return idx, np.empty((0, 4, 4)), np.empty(0)
    full = np.empty((idx.size, 10))
    full[:, :8] = u
    full[:, 8:] = third_block_uniforms(seed, idx.astype(np.uint64) + np.uint64(start))
    values = _values(full, k, l)
    keep = _minor_positive(values, 4, scale)
    M = _leading(values[keep], 4)
    return idx[keep], M, np.linalg.det(M)


def _grids(seed: int, index: np.ndarray, grid_size: int, n_grids: int,
           lo: float, hi: float, tol: Tolerances) -> np.ndarray:
    # The (len(index), n_grids, grid_size) coordinates that n_grids calls
    # of measures.random_grid draw from each sample's grid stream.  All
    # are taken from one Philox pass over the head of the streams, with
    # numpy's own uniform arithmetic; a sample with a coordinate gap
    # below tol.grid_coincidence in any of its grids would have redrawn
    # that grid and shifted the later ones, so it is drawn again whole
    # from its stream.
    u = grid_uniforms(seed, index, n_grids * grid_size)
    coords = np.sort(lo + (hi - lo) * u.reshape(len(index), n_grids, grid_size), axis=-1)
    gaps = np.diff(coords, axis=-1).min(axis=-1, initial=np.inf)
    for i in np.flatnonzero(~(gaps >= tol.grid_coincidence).all(axis=-1)):
        stream = grid_stream(seed, index[i])
        for g in range(n_grids):
            coords[i, g] = measures.random_grid(grid_size, stream, lo, hi, tol)
    return coords


def _census_block(args) -> _BlockOut:
    # One two-mode census block: the candidates, one stacked classify,
    # the Jeffreys weight and, when n_grids > 0, the volume-element stage.
    # A candidate is accepted when it is physical and solved by form I
    # and form II.  With n_grids == 0 (the Jeffreys census) no grid is
    # drawn and no sample is discarded.
    (seed, start, count, k, l, grid_size, n_grids, lo, hi, kinds, estimators) = args
    tol = DEFAULT
    index, M, det = _candidates(seed, start, count, k, l)
    verdict = criteria.classify(M, tol)
    ok = verdict.physical & (verdict.failure == 0)
    acc = CensusAccumulator(
        generated=count,
        accepted=int(np.count_nonzero(ok)),
        solver_failures=int(np.count_nonzero(verdict.physical & (verdict.failure != 0))),
    )
    # log det(M)^(-5/2) of the accepted candidates through math.log,
    # which np.log does not match in the last bit on a few inputs in a
    # thousand.
    det = det[ok]
    weights = {"fisher": -2.5 * np.fromiter(map(math.log, det.tolist()), float, det.size)}
    sep, cls = verdict.separable[ok], verdict.classical[ok]
    if n_grids:
        coords = _grids(seed, start + index[ok], grid_size, n_grids, lo, hi, tol)
        discarded, logs = measures._volume_logs(M[ok], coords, kinds, tol)
        acc.discarded_grids = int(np.count_nonzero(discarded))
        finite = np.ones(len(coords), dtype=bool)
        for kind in kinds:
            finite &= np.isfinite(logs[kind]).all(axis=-1)
        acc.numerical_faults = int(np.count_nonzero(~discarded & ~finite))
        good = ~discarded & finite
        logs = {kind: v[good] for kind, v in logs.items()}
        if all(kind in kinds for kind in ("bures", "kubo_mori", "maximal")):
            vb, vk, vm = logs["bures"], logs["kubo_mori"], logs["maximal"]
            slack = 1e-9 * np.maximum(1.0, np.abs(vk))
            acc.ordering_faults = int(np.count_nonzero((vb > vk + slack) | (vk > vm + slack)))
        weights["fisher"] = weights["fisher"][good]
        sep, cls = sep[good], cls[good]
        for kind in kinds:
            est = measures.VolumeEstimate.from_log_volumes(logs[kind], kind)
            for name in estimators:
                weights[f"{kind}:{name}"] = getattr(est, name)
    acc.separable = int(np.count_nonzero(sep))
    acc.classical = int(np.count_nonzero(cls))
    for key, lw in weights.items():
        tally = acc.tally(key)
        tally.acc.add_array(lw)
        tally.sep.add_array(lw[sep])
        tally.cls.add_array(lw[cls])
    flagged = np.flatnonzero(criteria.disagrees(verdict, tol) & ok)
    disagreement = None
    if flagged.size:
        i = flagged[0]
        disagreement = (M[i].copy(), float(verdict.margin_sep[i]), float(verdict.margin_ppt[i]))
    return _BlockOut(acc=acc, disagreement=disagreement)


def _one_mode_block(args) -> _BlockOut:
    seed, start, count, k, l = args
    u = substream_uniforms(seed, start, count, width=3)
    d1 = k * u[:, 0]
    d2 = k * u[:, 1]
    off = -l + 2.0 * l * u[:, 2]
    det = d1 * d2 - off * off
    phys = det >= 1.0 - 1e-10
    # closed-form min eig(A - I) for the symmetric 2x2 sample
    shifted = 0.5 * (d1 + d2) - 1.0 - np.sqrt(0.25 * (d1 - d2) ** 2 + off * off)
    classical = phys & (shifted > DEFAULT.classical_min_eig)
    acc = CensusAccumulator(generated=count)
    acc.accepted = int(np.count_nonzero(phys))
    acc.classical = int(np.count_nonzero(classical))
    lw = -1.5 * np.log(det[phys])
    cls_mask = classical[phys]
    tally = acc.tally("fisher")
    tally.acc.add_array(lw)
    tally.cls.add_array(lw[cls_mask])
    squared = acc.tally("fisher:squared")
    squared.acc.add_array(2.0 * lw)
    squared.cls.add_array(2.0 * lw[cls_mask])
    return _BlockOut(acc=acc)


def _entropy_block(args) -> _BlockOut:
    seed, start, count, k, l = args
    tol = DEFAULT
    # Only the physicality gate and the mirror oracle: no form-I or
    # form-II solve.
    index, M, _ = _candidates(seed, start, count, k, l)
    physical = states.is_physical(M, tol)
    separable = physical & criteria.is_separable_ppt(M, tol)[0]
    M = M[separable]
    joint = states.entropy(M)
    largest = np.maximum(states.entropy(M[:, :2, :2]), states.entropy(M[:, 2:, 2:]))
    beats = np.flatnonzero(joint < largest - 1e-12)
    acc = CensusAccumulator(
        generated=count,
        accepted=int(np.count_nonzero(physical)),
        separable=len(M),
    )
    # The violation count and the block's first three violations with
    # their sample indices.
    where = (start + index[separable][beats[:3]]).tolist()
    return _BlockOut(acc=acc, extra=(beats.size, tuple(zip(where, M[beats[:3]]))))


def _fold(
    runner: Callable,
    censuses: list[list],
    workers: int,
    progress: Sequence[Callable | None],
) -> Iterator[tuple[CensusAccumulator, list]]:
    # Each census's merged accumulator and its blocks' extras in block
    # order, one census after another.  The blocks of every census go
    # through one map, so with a pool the blocks of later censuses run
    # while earlier ones are folded.  Closing the generator early shuts
    # the pool down with its pending blocks cancelled.
    argses = [args for blocks in censuses for args in blocks]
    pool = None
    try:
        if workers > 1 and len(argses) > 1:
            # A forked pool starts all its workers at the first submit, so
            # it gets no more than there are blocks.
            pool = ProcessPoolExecutor(max_workers=min(workers, len(argses)))
            outs = pool.map(runner, argses)
        else:
            outs = map(runner, argses)
        for blocks, report in zip(censuses, progress):
            total = CensusAccumulator()
            extras: list = []
            for done, out in enumerate(itertools.islice(outs, len(blocks))):
                total.merge(out.acc)
                extras.append(out.extra)
                if out.disagreement is not None:
                    raise criteria.OracleDisagreementError(*out.disagreement)
                if report is not None and (done % _PROGRESS_EVERY == 0
                                           or done == len(blocks) - 1):
                    report(total.generated, total.accepted)
            yield total, extras
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def _two_mode_only(cfg: SamplerConfig) -> None:
    if cfg.mode_count != 2:
        raise ValueError("this census is defined for two-mode sampling")


def _two_mode_censuses(cfgs: list, workers: int, progress: Sequence[Callable | None],
                       grids: tuple = (0, 0, 0.0, 0.0, (), ())) -> Iterator[CensusResult]:
    # Both two-mode censuses, one result per config as its last block is
    # folded.  grids holds the grid size and count, the grid range, and
    # the metric kinds and estimators of _census_block; a grid count of 0
    # is the Jeffreys census.  Wall times count from the first block.
    t0 = time.perf_counter()
    censuses = [[(cfg.seed, s, c, cfg.k, cfg.l, *grids) for s, c in _block_ranges(cfg.samples)]
                for cfg in cfgs]
    kinds, estimators = grids[-2:]
    with closing(_fold(_census_block, censuses, workers, progress)) as folds:
        for cfg, (total, _) in zip(cfgs, folds):
            total.tally("fisher")  # present even when nothing was accepted
            for kind in kinds:
                for name in estimators:
                    total.tally(f"{kind}:{name}")
            yield CensusResult(
                config=cfg,
                generated=total.generated,
                accepted=total.accepted,
                separable=total.separable,
                classical=total.classical,
                discarded_grids=total.discarded_grids,
                solver_failures=total.solver_failures,
                measures=total.measures,
                wall_time=time.perf_counter() - t0,
                numerical_faults=total.numerical_faults,
                ordering_faults=total.ordering_faults,
            )


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
        _two_mode_only(cfg)
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

    Each sample runs positive definiteness and the physicality gate
    M + i*Omega >= 0, so the population is exactly the physical states
    (less any form-I or form-II solver failures, which are counted);
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
    is identical across all reported measures.
    """
    _two_mode_only(cfg)
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
    grids = (grid_size, n_grids, lo, hi, tuple(metric_kinds), tuple(estimators))
    (result,) = _two_mode_censuses([cfg], workers, [progress], grids)
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
    common random numbers.  The standard error is the delta-method
    estimate for the weighted ratio.
    """
    if cfg.mode_count != 1:
        raise ValueError("one-mode classicality needs mode_count=1")
    schedule = tuple(ks) if ks is not None else (cfg.k,)
    ratio = cfg.l / cfg.k
    boxes = []
    for k in schedule:
        if not (k > 0.0 and math.isfinite(k)):
            raise ValueError(f"k schedule entries must be positive and finite, got {k!r}")
        boxes.append((k, ratio * k))
        _check_bound(max(boxes[-1]), 1)
    censuses = [[(cfg.seed, s, c, k, l) for s, c in _block_ranges(cfg.samples)]
                for k, l in boxes]
    folds = _fold(_one_mode_block, censuses, workers, [progress] * len(boxes))
    totals = [total for total, _ in folds]
    points = []
    for (k, l), total in zip(boxes, totals):
        tally = total.tally("fisher")  # present even when nothing was drawn
        squared = total.tally("fisher:squared")
        la = tally.acc.log_total()
        if la == -math.inf:
            points.append(OneModePoint(k, l, cfg.samples, 0, 0, 0.0, 0.0))
            continue
        lc = tally.cls.log_total()
        p = math.exp(lc - la) if lc > -math.inf else 0.0
        la2 = squared.acc.log_total()
        lc2 = squared.cls.log_total()
        s2a = math.exp(la2 - 2.0 * la)
        s2c = math.exp(lc2 - 2.0 * la) if lc2 > -math.inf else 0.0
        var = (1.0 - p) ** 2 * s2c + p * p * (s2a - s2c)
        points.append(
            OneModePoint(
                k=float(k),
                l=float(l),
                samples=cfg.samples,
                physical=total.accepted,
                classical=total.classical,
                prob_classical=p,
                stderr=math.sqrt(max(var, 0.0)),
            )
        )
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
    _two_mode_only(cfg)
    argses = [(cfg.seed, s, c, cfg.k, cfg.l) for s, c in _block_ranges(cfg.samples)]
    ((total, extras),) = _fold(_entropy_block, [argses], workers, [progress])
    examples = [example for _, found in extras for example in found][:3]
    return EntropyReport(
        generated=total.generated,
        physical=total.accepted,
        separable=total.separable,
        violations=sum(count for count, _ in extras),
        example_indices=tuple(i for i, _ in examples),
        examples=tuple(m for _, m in examples),
    )

