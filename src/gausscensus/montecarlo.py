"""Weighted Monte Carlo censuses over random covariance matrices.

Samples are drawn from per-index counter-based substreams, processed in
fixed blocks, and folded in block order, so results are identical for
any worker count.  All weighted tallies are kept in the log domain with
streaming log-sum-exp accumulators.
"""

from __future__ import annotations

import itertools
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator

import numpy as np

from . import criteria, measures, states
from .rng import BLOCK, _check_seed, grid_stream, substream_uniforms
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "SamplerConfig",
    "LogSumExp",
    "MeasureTally",
    "CensusAccumulator",
    "CensusResult",
    "OneModePoint",
    "EntropyReport",
    "sample_matrix",
    "iter_accepted",
    "run_classical_census",
    "run_bures_census",
    "run_one_mode_classicality",
    "run_entropy_probe",
]

# Row-major order of the six distinct off-diagonal positions.
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))

_PROGRESS_EVERY = 4


@dataclass(frozen=True)
class SamplerConfig:
    """Box bounds, sample budget, and stream seed for one census."""

    k: float
    l: float
    samples: int
    seed: int
    mode_count: int = 2

    def __post_init__(self):
        if not (self.k > 0.0 and self.l > 0.0):
            raise ValueError("bounds k and l must be positive")
        if self.samples < 0:
            raise ValueError("sample count must be nonnegative")
        if self.mode_count not in (1, 2):
            raise ValueError("mode_count must be 1 or 2")
        _check_seed(self.seed)


@dataclass
class LogSumExp:
    """Streaming log-sum-exp: tracks log(sum of exp(x_i)) exactly once."""

    log_max: float = -math.inf
    sum_scaled: float = 0.0

    def add(self, x: float) -> None:
        if not math.isfinite(x):
            raise ValueError(f"nonfinite log weight {x!r}")
        if x <= self.log_max:
            self.sum_scaled += math.exp(x - self.log_max)
        else:
            self.sum_scaled = self.sum_scaled * math.exp(self.log_max - x) + 1.0
            self.log_max = x

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
    numerical_faults: int = 0
    ordering_faults: int = 0
    extra: tuple = ()


def sample_matrix(cfg: SamplerConfig, stream: np.random.Generator) -> np.ndarray:
    """Draw one symmetric matrix from the configured box.

    Diagonal entries are uniform on [0, k]; the distinct off-diagonals
    (row-major) are uniform on [-l, l].  Matches the block sampler
    bit for bit when the stream is the sample's own substream.
    """
    if cfg.mode_count == 1:
        u = stream.random(3)
        off = -cfg.l + 2.0 * cfg.l * u[2]
        return np.array([[cfg.k * u[0], off], [off, cfg.k * u[1]]])
    u = stream.random(10)
    M = np.zeros((4, 4))
    for j in range(4):
        M[j, j] = cfg.k * u[j]
    off = -cfg.l + 2.0 * cfg.l * u[4:]
    for t, (i, j) in enumerate(_PAIRS):
        M[i, j] = M[j, i] = off[t]
    return M


# For each of the 16 matrix entries (row-major), which of a sample's ten
# values it holds: 0-3 the diagonal, 4-9 the _PAIRS.
_ENTRY_COLUMNS = np.array([0, 4, 5, 6, 4, 1, 7, 8, 5, 7, 2, 9, 6, 8, 9, 3])


def _build_matrices(u: np.ndarray, k: float, l: float) -> np.ndarray:
    # A sample's ten distinct entries, then one gather into its matrix:
    # each array is read once, in row order.
    n = u.shape[0]
    values = np.empty((n, 10))
    values[:, :4] = k * u[:, :4]
    values[:, 4:] = -l + 2.0 * l * u[:, 4:]
    return np.take(values, _ENTRY_COLUMNS, axis=1).reshape(n, 4, 4)


def _pd_candidates(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Sylvester screen: leading minors 1..4 positive.  Returns surviving
    # indices and their determinants (reused for the Jeffreys weight).
    d2 = M[:, 0, 0] * M[:, 1, 1] - M[:, 0, 1] ** 2
    idx = np.nonzero((M[:, 0, 0] > 0.0) & (d2 > 0.0))[0]
    if idx.size:
        d3 = np.linalg.det(M[idx][:, :3, :3])
        idx = idx[d3 > 0.0]
    if not idx.size:
        return idx, np.empty(0)
    d4 = np.linalg.det(M[idx])
    keep = d4 > 0.0
    return idx[keep], d4[keep]


def _block_ranges(samples: int) -> list[tuple[int, int]]:
    return [(s, min(BLOCK, samples - s)) for s in range(0, samples, BLOCK)]


def _map_blocks(fn: Callable, argses: list, workers: int) -> Iterator:
    if workers <= 1 or len(argses) <= 1:
        return map(fn, argses)
    pool = ProcessPoolExecutor(max_workers=workers)
    gen = pool.map(fn, argses)

    def run():
        try:
            yield from gen
        finally:
            pool.shutdown()

    return run()


@dataclass
class _Front:
    """A block's positive definite candidates and their stacked verdict."""

    index: np.ndarray  # position of each candidate in the block
    M: np.ndarray
    det: np.ndarray
    verdict: "criteria.Verdict"
    accepted: np.ndarray  # physical and solved by form I and form II

    def counts(self, generated: int) -> CensusAccumulator:
        v = self.verdict
        return CensusAccumulator(
            generated=generated,
            accepted=int(np.count_nonzero(self.accepted)),
            solver_failures=int(np.count_nonzero(v.physical & (v.failure != 0))),
        )

    def fisher_log_weights(self) -> np.ndarray:
        # log det(M)^(-5/2) of the accepted candidates through math.log,
        # which np.log does not match in the last bit on a few inputs in
        # a thousand.
        det = self.det[self.accepted]
        return -2.5 * np.fromiter(map(math.log, det.tolist()), float, det.size)

    def disagreement(self, tol: Tolerances) -> tuple | None:
        flagged = np.flatnonzero(criteria.disagrees(self.verdict, tol) & self.accepted)
        if not flagged.size:
            return None
        i = flagged[0]
        return self.M[i].copy(), float(self.verdict.margin_sep[i]), float(self.verdict.margin_ppt[i])


def _candidates(seed: int, start: int, count: int, k: float, l: float) -> tuple:
    # The front of every two-mode block: uniforms, matrices, positive
    # definite screen.  Returns the candidates' block positions,
    # matrices and determinants.
    u = substream_uniforms(seed, start, count, width=10)
    M = _build_matrices(u, k, l)
    idx, dets = _pd_candidates(M)
    return idx, M[idx], dets


def _front(seed: int, start: int, count: int, k: float, l: float, tol: Tolerances) -> _Front:
    # The census chain: the candidates and one stacked classify.
    idx, M, dets = _candidates(seed, start, count, k, l)
    verdict = criteria.classify(M, tol)
    return _Front(idx, M, dets, verdict, verdict.physical & (verdict.failure == 0))


def _tally(acc: CensusAccumulator, weights: dict, sep: np.ndarray, cls: np.ndarray) -> None:
    acc.separable = int(np.count_nonzero(sep))
    acc.classical = int(np.count_nonzero(cls))
    for key, lw in weights.items():
        tally = acc.tally(key)
        tally.acc.add_array(lw)
        tally.sep.add_array(lw[sep])
        tally.cls.add_array(lw[cls])


def _classical_block(args) -> _BlockOut:
    seed, start, count, k, l = args
    tol = DEFAULT
    front = _front(seed, start, count, k, l, tol)
    acc = front.counts(count)
    ok = front.accepted
    weights = {"fisher": front.fisher_log_weights()}
    _tally(acc, weights, front.verdict.separable[ok], front.verdict.classical[ok])
    return _BlockOut(acc=acc, disagreement=front.disagreement(tol))


def _bures_block(args) -> _BlockOut:
    (seed, start, count, k, l, grid_size, n_grids, lo, hi, kinds, estimators) = args
    tol = DEFAULT
    front = _front(seed, start, count, k, l, tol)
    acc = front.counts(count)
    ok = front.accepted
    # Each sample draws all its grids from its own stream before any of
    # its kernels is judged, so a rejection never changes what is drawn.
    rows = (start + front.index[ok]).tolist()
    coords = np.array([
        [measures.random_grid(grid_size, stream, lo, hi, tol).coords for _ in range(n_grids)]
        for stream in (grid_stream(seed, i) for i in rows)
    ]).reshape(len(rows), n_grids, grid_size)
    discarded, logs = measures._volume_logs(front.M[ok], coords, kinds, tol)
    acc.discarded_grids = int(np.count_nonzero(discarded))
    finite = np.ones(len(rows), dtype=bool)
    for kind in kinds:
        finite &= np.isfinite(logs[kind]).all(axis=-1)
    numerical_faults = int(np.count_nonzero(~discarded & ~finite))
    good = ~discarded & finite
    logs = {kind: v[good] for kind, v in logs.items()}
    ordering_faults = 0
    if all(kind in kinds for kind in ("bures", "kubo_mori", "maximal")):
        vb, vk, vm = logs["bures"], logs["kubo_mori"], logs["maximal"]
        slack = 1e-9 * np.maximum(1.0, np.abs(vk))
        ordering_faults = int(np.count_nonzero((vb > vk + slack) | (vk > vm + slack)))
    weights = {"fisher": front.fisher_log_weights()[good]}
    for kind in kinds:
        est = measures.VolumeEstimate.from_log_volumes(logs[kind], kind)
        for name in estimators:
            weights[f"{kind}:{name}"] = getattr(est, name)
    _tally(acc, weights, front.verdict.separable[ok][good], front.verdict.classical[ok][good])
    return _BlockOut(
        acc=acc,
        disagreement=front.disagreement(tol),
        numerical_faults=numerical_faults,
        ordering_faults=ordering_faults,
    )


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
        classical=beats.size,
    )
    where = (start + index[separable][beats[:3]]).tolist()
    return _BlockOut(acc=acc, extra=tuple(zip(where, M[beats[:3]])))


def _fold(
    runner: Callable,
    argses: list,
    workers: int,
    progress: Callable | None,
) -> tuple[CensusAccumulator, int, int, list]:
    total = CensusAccumulator()
    numerical_faults = 0
    ordering_faults = 0
    extras: list = []
    for done, out in enumerate(_map_blocks(runner, argses, workers)):
        total.merge(out.acc)
        numerical_faults += out.numerical_faults
        ordering_faults += out.ordering_faults
        extras.extend(out.extra)
        if out.disagreement is not None:
            raise criteria.OracleDisagreementError(*out.disagreement)
        if progress is not None and (done % _PROGRESS_EVERY == 0 or done == len(argses) - 1):
            progress(total.generated, total.accepted)
    return total, numerical_faults, ordering_faults, extras


def _two_mode_only(cfg: SamplerConfig) -> None:
    if cfg.mode_count != 2:
        raise ValueError("this census is defined for two-mode sampling")


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
    outside the boundary band aborts the run.
    """
    _two_mode_only(cfg)
    t0 = time.perf_counter()
    argses = [(cfg.seed, s, c, cfg.k, cfg.l) for s, c in _block_ranges(cfg.samples)]
    total, _, _, _ = _fold(_classical_block, argses, workers, progress)
    total.tally("fisher")  # present even when nothing was accepted
    return CensusResult(
        config=cfg,
        generated=total.generated,
        accepted=total.accepted,
        separable=total.separable,
        classical=total.classical,
        discarded_grids=0,
        solver_failures=total.solver_failures,
        measures=total.measures,
        wall_time=time.perf_counter() - t0,
    )


def run_bures_census(
    cfg: SamplerConfig,
    grid_size: int = 5,
    n_grids: int = 5,
    grid_range: tuple[float, float] = (-2.0, 2.0),
    metric_kinds: tuple[str, ...] = ("bures",),
    estimators: tuple[str, ...] = ("median", "trimmed_mean"),
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
        if name not in ("median", "trimmed_mean"):
            raise ValueError(f"unknown robust estimator {name!r}")
    t0 = time.perf_counter()
    lo, hi = float(grid_range[0]), float(grid_range[1])
    if not hi > lo:
        raise ValueError("empty grid range")
    argses = [
        (cfg.seed, s, c, cfg.k, cfg.l, grid_size, n_grids, lo, hi,
         tuple(metric_kinds), tuple(estimators))
        for s, c in _block_ranges(cfg.samples)
    ]
    total, bad, unordered, _ = _fold(_bures_block, argses, workers, progress)
    total.tally("fisher")
    for kind in metric_kinds:
        for name in estimators:
            total.tally(f"{kind}:{name}")
    return CensusResult(
        config=cfg,
        generated=total.generated,
        accepted=total.accepted,
        separable=total.separable,
        classical=total.classical,
        discarded_grids=total.discarded_grids,
        solver_failures=total.solver_failures,
        measures=total.measures,
        wall_time=time.perf_counter() - t0,
        numerical_faults=bad,
        ordering_faults=unordered,
    )


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
    points = []
    for k in schedule:
        if k <= 0.0:
            raise ValueError("k schedule entries must be positive")
        l = ratio * k
        argses = [(cfg.seed, s, c, k, l) for s, c in _block_ranges(cfg.samples)]
        total, _, _, _ = _fold(_one_mode_block, argses, workers, progress)
        tally = total.measures["fisher"]
        squared = total.measures["fisher:squared"]
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
    total, _, _, extras = _fold(_entropy_block, argses, workers, progress)
    extras = extras[:3]
    return EntropyReport(
        generated=total.generated,
        physical=total.accepted,
        separable=total.separable,
        violations=total.classical,
        example_indices=tuple(i for i, _ in extras),
        examples=tuple(m for _, m in extras),
    )


def iter_accepted(
    cfg: SamplerConfig, limit: int | None = None
) -> Iterator[tuple[int, np.ndarray, "criteria.Verdict"]]:
    """Yield (index, matrix, verdict) for chain-accepted samples in order.

    With a limit, stops after that many samples; limit=0 yields none.
    """
    _two_mode_only(cfg)
    if limit is not None and limit < 0:
        raise ValueError("limit must be nonnegative")
    return itertools.islice(_accepted_samples(cfg), limit)


def _accepted_samples(cfg: SamplerConfig) -> Iterator:
    for start, count in _block_ranges(cfg.samples):
        front = _front(cfg.seed, start, count, cfg.k, cfg.l, DEFAULT)
        ok = np.flatnonzero(front.accepted)
        indices = (start + front.index[ok]).tolist()
        yield from zip(indices, front.M[ok], map(front.verdict.lane, ok))
