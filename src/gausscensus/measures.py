"""Prior measures over Gaussian states.

Two families are implemented: the closed-form information-metric weight
det(M) to a negative half-integer power, and monotone-metric volume
elements (Bures, Kubo-Mori, maximal) obtained by discretizing the
Gaussian position-representation kernel on a grid and working with its
normalized spectrum.  All volume arithmetic stays in the log domain.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "METRIC_KINDS",
    "ESTIMATORS",
    "SingularBlockError",
    "NonPositiveSpectrumError",
    "SampleDiscarded",
    "GridDrawError",
    "GridSpec",
    "KernelMatrix",
    "VolumeEstimate",
    "regular_grid",
    "random_grid",
    "jeffreys_log_weight",
    "schroedinger_kernel",
    "discretize",
    "log_volume_element",
    "robust_volume",
    "robust_volume_multi",
]

METRIC_KINDS = ("bures", "kubo_mori", "maximal")
ESTIMATORS = ("median", "trimmed_mean")

# Kernels that share one stacked eigensolve in _volume_logs.  Results
# do not depend on it; it bounds the memory of a chunk.
KERNEL_CHUNK = 80

# Smallest eigenvalue of the inverse's momentum block, relative to the
# largest, below which the block counts as singular.
_SINGULAR_BLOCK_REL = 1e-14


class SingularBlockError(Exception):
    """The momentum block of the inverse covariance is singular."""


class NonPositiveSpectrumError(Exception):
    """The discretized kernel has a nonpositive eigenvalue."""


class SampleDiscarded(Exception):
    """A grid rejection discarded the whole sample."""


class GridDrawError(RuntimeError):
    """No grid with distinct enough coordinates was drawn."""


@dataclass(frozen=True)
class GridSpec:
    """Strictly increasing coordinates used on both axes of the grid.

    A stack of grids, one per matrix, carries coordinates of shape (S, m).
    """

    coords: np.ndarray
    kind: str


@dataclass(frozen=True)
class KernelMatrix:
    """Discretized kernel with its normalized positive spectrum.

    A stack of S kernels carries a leading axis S on every field, sets
    only the lower triangle of gamma and marks in passed_floor the
    kernels that passed the spectrum floor.
    """

    gamma: np.ndarray
    eigenvalues: np.ndarray
    log_det: float
    passed_floor: np.ndarray | bool = True


@dataclass(frozen=True)
class VolumeEstimate:
    """Per-grid log volumes with their robust location estimates."""

    log_volumes: np.ndarray
    median: float
    trimmed_mean: float
    metric_kind: str

    @classmethod
    def from_log_volumes(cls, log_volumes: np.ndarray, metric_kind: str) -> "VolumeEstimate":
        """Median and trimmed mean over the last (grid) axis.

        The trimmed mean drops the lowest and highest value when there
        are at least three.  A stack of rows gives arrays of estimates,
        one row a pair of floats.
        """
        ordered = np.sort(log_volumes, axis=-1)
        if ordered.shape[-1] >= 3:
            ordered = ordered[..., 1:-1]
        median = np.median(log_volumes, axis=-1)
        # Contiguous rows are summed in the order a lone row is.
        trimmed = np.ascontiguousarray(ordered).mean(axis=-1)
        if np.ndim(log_volumes) == 1:
            median, trimmed = float(median), float(trimmed)
        return cls(log_volumes, median, trimmed, metric_kind)


def regular_grid(m: int) -> GridSpec:
    """Unit-spacing coordinates centered at the origin; m must be odd."""
    if m < 1 or m % 2 == 0:
        raise ValueError("regular grids need an odd point count")
    coords = np.arange(m, dtype=float) - 0.5 * (m - 1)
    return GridSpec(coords=coords, kind="regular")


def random_grid(
    m: int,
    rng: np.random.Generator,
    lo: float = -2.0,
    hi: float = 2.0,
    tol: Tolerances = DEFAULT,
) -> GridSpec:
    """Sorted uniform coordinates on [lo, hi], redrawn on coincidences."""
    for _ in range(1000):
        coords = np.sort(rng.uniform(lo, hi, size=m))
        if m < 2 or float(np.diff(coords).min()) >= tol.grid_coincidence:
            return GridSpec(coords=coords, kind="random")
    raise GridDrawError(f"could not draw {m} grid coordinates {tol.grid_coincidence!r} "
                        f"apart on [{lo!r}, {hi!r}]; widen the grid range")


def jeffreys_log_weight(M: np.ndarray) -> float:
    """Log of det(M)^(-(d+1)/2) for a d-dimensional covariance matrix.

    d = 4 gives the -5/2 power used for two-mode states, d = 2 the -3/2
    power for one-mode states.  Only ratios of weights are meaningful.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0]
    return -0.5 * (d + 1) * math.log(float(np.linalg.det(M)))


def _kernel_pieces(M: np.ndarray, tol: Tolerances):
    # Reorder (x1, p1, x2, p2) -> (x.., p..), invert, and Schur-reduce the
    # momentum block, for a stack of one-mode (2x2) or two-mode (4x4)
    # matrices along the leading axis.
    d = M.shape[-1] // 2
    perm = [0, 1] if d == 1 else [0, 2, 1, 3]
    K = np.linalg.inv(M[:, perm][:, :, perm])
    Kqq = K[:, :d, :d]
    Kqp = K[:, :d, d:]
    Kpp = K[:, d:, d:]
    w = np.linalg.eigvalsh(Kpp)
    floor = _SINGULAR_BLOCK_REL * np.maximum(np.abs(w[:, -1]), 1e-300)
    if not np.isfinite(w).all() or (w[:, 0] <= floor).any():
        raise SingularBlockError("momentum block of the inverse is singular")
    Kpp_inv = np.linalg.inv(Kpp)
    Cqv = Kqp @ Kpp_inv
    Aq = Kqq - Cqv @ Kqp.swapaxes(-1, -2)
    return Aq, Kpp_inv, Cqv


def schroedinger_kernel(
    M: np.ndarray, x: np.ndarray, xp: np.ndarray, tol: Tolerances = DEFAULT
) -> complex:
    """Position-representation kernel of the Gaussian state at (x, xp).

    With K the inverse of the position/momentum-ordered covariance,
    q = (x + xp) / 2 and v = x - xp:

        exp(-1/2 q^T (Kqq - Kqp Kpp^-1 Kqp^T) q
            - 1/8 v^T Kpp^-1 v
            - i/2 q^T Kqp Kpp^-1 v)

    normalized so the value at the origin is 1; the overall constant is
    irrelevant because spectra are normalized downstream.
    """
    Aq, Kpp_inv, Cqv = (p[0] for p in _kernel_pieces(np.asarray(M, dtype=float)[None], tol))
    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    q = 0.5 * (x + xp)
    v = x - xp
    re = -0.5 * q @ Aq @ q - 0.125 * v @ Kpp_inv @ v
    im = -0.5 * q @ Cqv @ v
    return complex(np.exp(re + 1j * im))


@functools.lru_cache(maxsize=16)
def _triu(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    # (row, column) index of the entries on and above diagonal k of an
    # n x n matrix; read-only, since every caller shares the cached pair.
    rows, cols = np.triu_indices(n, k)
    rows.flags.writeable = False
    cols.flags.writeable = False
    return rows, cols


def _grid_axes(coords: np.ndarray, modes: int) -> list[np.ndarray]:
    # (n, m) coordinates -> per-mode coordinates (n, points) of the
    # row-major point lattice.
    if modes == 1:
        return [coords]
    m = coords.shape[-1]
    return [np.repeat(coords, m, axis=-1), np.tile(coords, (1, m))]


def _quadratic_form(x: list, A: np.ndarray, y: list) -> np.ndarray:
    # sum_ij x_i A_ij y_j per kernel entry, with x_i, y_j of shape
    # (n, entries) and A of shape (n, d, d).  Terms are added in the order
    # np.einsum("nei,nij,nej->ne", ...) adds them, starting from
    # zero, so the two agree bit for bit; this form is several times
    # faster.
    out = 0.0
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out = out + (xi * A[:, i, j, None]) * yj
    return out


def discretize(
    M: np.ndarray,
    grid: GridSpec,
    tol: Tolerances = DEFAULT,
    *,
    pieces: tuple | None = None,
) -> KernelMatrix:
    """Evaluate the kernel on the grid's point lattice and diagonalize.

    Points are the row-major Cartesian product of the coordinates with
    themselves (for one-mode input, the coordinates directly).  Entries
    are evaluated on and above the diagonal; those below are their
    mirror images' conjugates.  A spectrum with any eigenvalue at or
    below the relative floor rejects the kernel.

    One matrix with one grid returns one kernel with the full Hermitian
    gamma and raises NonPositiveSpectrumError on rejection.  A stack of
    S matrices with one grid each, coordinates of shape (S, m), returns
    S kernels from one stacked eigensolve and reports rejection per
    kernel in `passed_floor` (log_det is NaN there).  A stack sets only
    the lower triangle of gamma, all that the eigensolve reads; the
    entries above the diagonal are not set.  A caller that already
    holds the `_kernel_pieces` of M passes them as `pieces`.
    """
    M = np.asarray(M, dtype=float)
    coords = np.asarray(grid.coords, dtype=float)
    single = M.ndim == 2
    if single:
        M, coords = M[None], coords[None]
    Aq, Kpp_inv, Cqv = _kernel_pieces(M, tol) if pieces is None else pieces
    axes = _grid_axes(coords, M.shape[-1] // 2)
    n = axes[0].shape[-1]
    a, b = _triu(n)
    x_a = [np.take(x, a, axis=-1) for x in axes]
    x_b = [np.take(x, b, axis=-1) for x in axes]
    q = [0.5 * (xa + xb) for xa, xb in zip(x_a, x_b)]
    v = [xa - xb for xa, xb in zip(x_a, x_b)]
    re = -0.5 * _quadratic_form(q, Aq, q)
    re -= 0.125 * _quadratic_form(v, Kpp_inv, v)
    im = -0.5 * _quadratic_form(q, Cqv, v)
    upper = np.exp(re + 1j * im)
    gamma = np.empty((len(M), n, n), dtype=complex)
    gamma[:, b, a] = np.conj(upper)
    if single:
        gamma[:, a, b] = upper
    w = np.linalg.eigvalsh(gamma)
    passed = ~(w[:, 0] <= tol.spectrum_floor_rel * w[:, -1])
    lam = w / w.sum(axis=-1, keepdims=True)
    log_det = np.full(len(M), np.nan)
    log_det[passed] = np.log(lam[passed]).sum(axis=-1)
    if not single:
        return KernelMatrix(gamma=gamma, eigenvalues=lam, log_det=log_det, passed_floor=passed)
    if not passed[0]:
        raise NonPositiveSpectrumError(
            f"minimum eigenvalue {w[0, 0]:.3e} of {n}x{n} kernel matrix"
        )
    return KernelMatrix(gamma=gamma[0], eigenvalues=lam[0], log_det=float(log_det[0]))


def _log_mean(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # (a - b) / (log a - log b) with the equal-argument limit; the log1p
    # form keeps the quotient stable for nearly equal pairs.
    d = a - b
    safe = np.where(d == 0.0, 1.0, np.log1p(d / b))
    return np.where(d == 0.0, a, d / safe)


def _log_volumes(lam: np.ndarray, log_det: np.ndarray, metric_kinds) -> dict:
    # ln V per metric kind for contiguous spectra (..., n) with their
    # log_det = sum_i ln lambda_i; the eigenvalue pairs are gathered once
    # for all kinds.  Contiguous rows keep every row's sums in the same
    # order as a lone spectrum's, so stacked and single calls agree bit
    # for bit.
    i, j = _triu(lam.shape[-1], 1)
    a, b = np.take(lam, i, axis=-1), np.take(lam, j, axis=-1)
    out = {}
    for kind in metric_kinds:
        if kind == "bures":
            pair = a + b
        elif kind == "kubo_mori":
            pair = 2.0 * _log_mean(a, b)
        elif kind == "maximal":
            pair = a * b / (a + b)
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[kind] = -0.5 * log_det - np.log(pair).sum(axis=-1)
    return out


def log_volume_element(kernel, metric_kind: str):
    """Log volume element of the chosen monotone metric.

    ln V = -1/2 sum_i ln lambda_i  -  sum_{i<j} ln pair(lambda_i, lambda_j)

    with pair = lambda_i + lambda_j for the Bures metric, twice the
    logarithmic mean for Kubo-Mori, and the harmonic-type quotient
    lambda_i lambda_j / (lambda_i + lambda_j) for the maximal metric.
    Constant factors common to all states are dropped.  Accepts a
    KernelMatrix or a bare spectrum; a stack of spectra (..., n) gives
    an array of log volumes (...), a single spectrum a float.
    """
    lam = kernel.eigenvalues if isinstance(kernel, KernelMatrix) else kernel
    lam = np.ascontiguousarray(lam, dtype=float)
    out = _log_volumes(lam, np.log(lam).sum(axis=-1), (metric_kind,))[metric_kind]
    return float(out) if out.ndim == 0 else out


def _volume_logs(
    M: np.ndarray,
    coords: np.ndarray,
    metric_kinds: tuple[str, ...],
    tol: Tolerances = DEFAULT,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-grid log volumes for a stack of matrices on their own grids.

    M has shape (S, 2d, 2d) and coords (S, G, m): G grids per matrix.
    The kernel pieces are computed once per matrix.  Grid g is then
    discretized, KERNEL_CHUNK kernels at a time, only for the matrices
    that no earlier grid rejected, so a matrix is discarded at its first
    rejected kernel and the later ones are never built.  The log volumes
    of every requested metric are taken right away on each chunk's
    kernels that passed the floor.  Returns a (S,) mask of discarded
    matrices and, per metric, the (S, G) log volumes, NaN on the
    discarded rows.  No row depends on the others or on the chunk size.
    """
    S, G, _ = coords.shape
    pieces = _kernel_pieces(M, tol)
    logs = {kind: np.empty((S, G)) for kind in metric_kinds}
    discarded = np.zeros(S, dtype=bool)
    for g in range(G):
        kept = np.flatnonzero(~discarded)
        for lo in range(0, kept.size, KERNEL_CHUNK):
            rows = kept[lo:lo + KERNEL_CHUNK]
            kern = discretize(
                M[rows],
                GridSpec(coords=coords[rows, g], kind="random"),
                tol,
                pieces=tuple(p[rows] for p in pieces),
            )
            ok = kern.passed_floor
            discarded[rows[~ok]] = True
            volumes = _log_volumes(kern.eigenvalues[ok], kern.log_det[ok], metric_kinds)
            for kind, values in volumes.items():
                logs[kind][rows[ok], g] = values
    for values in logs.values():
        values[discarded] = np.nan
    return discarded, logs


def robust_volume_multi(
    M: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    metric_kinds: tuple[str, ...] = ("bures",),
    n_grids: int = 5,
    grid_size: int = 5,
    grid_range: tuple[float, float] = (-2.0, 2.0),
    grid: GridSpec | None = None,
    tol: Tolerances = DEFAULT,
) -> dict[str, VolumeEstimate]:
    """Volume estimates for several metrics from one set of grids.

    Draws n_grids random grids from the caller-owned stream (or uses the
    single supplied grid), discretizes once per grid, and evaluates every
    requested metric on the shared spectra.  Any rejected kernel discards
    the whole sample by raising SampleDiscarded.  This is _volume_logs on
    a stack of one matrix.
    """
    if grid is not None:
        grids = [grid]
    else:
        if rng is None:
            raise ValueError("a random stream is required to draw grids")
        lo, hi = grid_range
        grids = [random_grid(grid_size, rng, lo, hi, tol) for _ in range(n_grids)]
    coords = np.array([[np.asarray(g.coords, dtype=float) for g in grids]])
    discarded, logs = _volume_logs(np.asarray(M, dtype=float)[None], coords, metric_kinds, tol)
    if discarded[0]:
        raise SampleDiscarded("a kernel eigenvalue fell to the relative spectrum floor")
    return {kind: VolumeEstimate.from_log_volumes(logs[kind][0], kind) for kind in metric_kinds}


def robust_volume(
    M: np.ndarray,
    rng: np.random.Generator | None = None,
    *,
    metric_kind: str = "bures",
    n_grids: int = 5,
    grid_size: int = 5,
    grid_range: tuple[float, float] = (-2.0, 2.0),
    grid: GridSpec | None = None,
    tol: Tolerances = DEFAULT,
) -> VolumeEstimate:
    """Single-metric convenience wrapper around robust_volume_multi."""
    return robust_volume_multi(
        M,
        rng,
        metric_kinds=(metric_kind,),
        n_grids=n_grids,
        grid_size=grid_size,
        grid_range=grid_range,
        grid=grid,
        tol=tol,
    )[metric_kind]
