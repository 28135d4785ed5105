"""Monotone-metric prior measures over Gaussian states.

Bures, Kubo-Mori and maximal-metric volume elements are obtained by
discretizing the Gaussian position-representation kernel on a grid and
working with its normalized spectrum.  All volume arithmetic stays in
the log domain.  The closed-form information-metric weight, det(M) to a
negative half-integer power, is taken by the census blocks in
`montecarlo` from the determinants they already hold.

Every state is a two-mode covariance matrix.  `discretize` takes a
stack of them along a leading axis, shape (S, 4, 4), with one grid per
matrix, and marks a kernel that falls to the spectrum floor in
`passed_floor` rather than raising; any other shape raises ValueError.
Only `robust_volume_multi`, which takes one matrix and a caller's
stream, raises for a rejected kernel (SampleDiscarded).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .states import _stack
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "METRIC_KINDS",
    "ESTIMATORS",
    "SingularBlockError",
    "SampleDiscarded",
    "GridDrawError",
    "KernelMatrix",
    "VolumeEstimate",
    "regular_grid",
    "random_grid",
    "schroedinger_kernel",
    "discretize",
    "log_volume_element",
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


class SampleDiscarded(Exception):
    """A grid rejection discarded the whole sample."""


class GridDrawError(RuntimeError):
    """No grid with distinct enough coordinates was drawn."""


@dataclass(frozen=True)
class KernelMatrix:
    """A stack of S discretized kernels with their normalized spectra.

    Every field carries the leading axis S.  Only the lower triangle of
    gamma is set, and passed_floor marks the kernels that passed the
    spectrum floor.
    """

    gamma: np.ndarray
    eigenvalues: np.ndarray
    log_det: np.ndarray
    passed_floor: np.ndarray


@dataclass(frozen=True)
class VolumeEstimate:
    """Per-grid log volumes with their robust location estimates."""

    log_volumes: np.ndarray
    median: np.ndarray
    trimmed_mean: np.ndarray
    metric_kind: str

    @classmethod
    def from_log_volumes(cls, log_volumes: np.ndarray, metric_kind: str) -> "VolumeEstimate":
        """Median and trimmed mean over the last (grid) axis.

        The trimmed mean drops the lowest and highest value when there
        are at least three.  Log volumes of shape (..., G) give
        estimates of shape (...).
        """
        ordered = np.sort(log_volumes, axis=-1)
        if ordered.shape[-1] >= 3:
            ordered = ordered[..., 1:-1]
        median = np.median(log_volumes, axis=-1)
        # Contiguous rows are summed in the order a lone row is.
        trimmed = np.ascontiguousarray(ordered).mean(axis=-1)
        return cls(log_volumes, median, trimmed, metric_kind)


def regular_grid(m: int) -> np.ndarray:
    """Unit-spacing coordinates centered at the origin; m must be odd."""
    if m < 1 or m % 2 == 0:
        raise ValueError("regular grids need an odd point count")
    return np.arange(m, dtype=float) - 0.5 * (m - 1)


def random_grid(
    m: int,
    rng: np.random.Generator,
    lo: float = -2.0,
    hi: float = 2.0,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Sorted uniform coordinates on [lo, hi], redrawn on coincidences."""
    for _ in range(1000):
        coords = np.sort(rng.uniform(lo, hi, size=m))
        if m < 2 or float(np.diff(coords).min()) >= tol.grid_coincidence:
            return coords
    raise GridDrawError(f"could not draw {m} grid coordinates {tol.grid_coincidence!r} "
                        f"apart on [{lo!r}, {hi!r}]; widen the grid range")


def _kernel_pieces(M: np.ndarray):
    # Reorder (x1, p1, x2, p2) -> (x1, x2, p1, p2), invert, and
    # Schur-reduce the momentum block, for a stack of 4x4 matrices along
    # the leading axis.
    perm = [0, 2, 1, 3]
    K = np.linalg.inv(M[:, perm][:, :, perm])
    Kqq = K[:, :2, :2]
    Kqp = K[:, :2, 2:]
    Kpp = K[:, 2:, 2:]
    w = np.linalg.eigvalsh(Kpp)
    floor = _SINGULAR_BLOCK_REL * np.maximum(np.abs(w[:, -1]), 1e-300)
    if not np.isfinite(w).all() or (w[:, 0] <= floor).any():
        raise SingularBlockError("momentum block of the inverse is singular")
    Kpp_inv = np.linalg.inv(Kpp)
    Cqv = Kqp @ Kpp_inv
    Aq = Kqq - Cqv @ Kqp.swapaxes(-1, -2)
    return Aq, Kpp_inv, Cqv


def schroedinger_kernel(M: np.ndarray, x: np.ndarray, xp: np.ndarray) -> complex:
    """Position-representation kernel of the Gaussian state at (x, xp).

    With K the inverse of the position/momentum-ordered covariance,
    q = (x + xp) / 2 and v = x - xp:

        exp(-1/2 q^T (Kqq - Kqp Kpp^-1 Kqp^T) q
            - 1/8 v^T Kpp^-1 v
            - i/2 q^T Kqp Kpp^-1 v)

    normalized so the value at the origin is 1; the overall constant is
    irrelevant because spectra are normalized downstream.  M is one 4x4
    matrix and x, xp are positions of both modes.
    """
    Aq, Kpp_inv, Cqv = (p[0] for p in _kernel_pieces(_stack(np.asarray(M)[None], (4, 4))))
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
    coords: np.ndarray,
    tol: Tolerances = DEFAULT,
    *,
    pieces: tuple | None = None,
) -> KernelMatrix:
    """Evaluate the kernels on their grids' point lattices and diagonalize.

    M is a stack of S matrices, (S, 4, 4), and coords holds one grid per
    matrix, shape (S, m).  A grid's strictly increasing coordinates serve
    on both axes: points are the row-major Cartesian product of the
    coordinates with themselves.  Entries are evaluated on and above the
    diagonal and stored below it as their conjugates; the entries above
    the diagonal are not set, since the eigensolve reads only the lower
    triangle.  Returns S kernels from one stacked eigensolve.  A
    spectrum with any eigenvalue at or below the relative floor rejects
    its kernel: `passed_floor` is False and log_det NaN there.  A caller
    that already holds the `_kernel_pieces` of M passes them as
    `pieces`.
    """
    M = _stack(M, (4, 4))
    coords = np.asarray(coords, dtype=float)
    if coords.shape[:1] != M.shape[:1] or coords.ndim != 2:
        raise ValueError(f"expected one grid per matrix, shape ({len(M)}, m), "
                         f"got shape {coords.shape}")
    Aq, Kpp_inv, Cqv = _kernel_pieces(M) if pieces is None else pieces
    # Each mode's coordinate at every point of the row-major lattice.
    m = coords.shape[-1]
    axes = [np.repeat(coords, m, axis=-1), np.tile(coords, (1, m))]
    n = m * m
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
    w = np.linalg.eigvalsh(gamma)
    passed = ~(w[:, 0] <= tol.spectrum_floor_rel * w[:, -1])
    lam = w / w.sum(axis=-1, keepdims=True)
    log_det = np.full(len(M), np.nan)
    log_det[passed] = np.log(lam[passed]).sum(axis=-1)
    return KernelMatrix(gamma=gamma, eigenvalues=lam, log_det=log_det, passed_floor=passed)


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
    # order as a lone spectrum's, so a row's result does not depend on
    # the rest of the stack.
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
    KernelMatrix or bare spectra: spectra of shape (..., n) give log
    volumes of shape (...).
    """
    lam = kernel.eigenvalues if isinstance(kernel, KernelMatrix) else kernel
    lam = np.ascontiguousarray(lam, dtype=float)
    return _log_volumes(lam, np.log(lam).sum(axis=-1), (metric_kind,))[metric_kind]


def _volume_logs(
    M: np.ndarray,
    coords: np.ndarray,
    metric_kinds: tuple[str, ...],
    tol: Tolerances = DEFAULT,
) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Per-grid log volumes for a stack of matrices on their own grids.

    M has shape (S, 4, 4) and coords (S, G, m): G grids per matrix.
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
    pieces = _kernel_pieces(M)
    logs = {kind: np.empty((S, G)) for kind in metric_kinds}
    discarded = np.zeros(S, dtype=bool)
    for g in range(G):
        kept = np.flatnonzero(~discarded)
        for lo in range(0, kept.size, KERNEL_CHUNK):
            rows = kept[lo:lo + KERNEL_CHUNK]
            kern = discretize(M[rows], coords[rows, g], tol,
                              pieces=tuple(p[rows] for p in pieces))
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
    rng: np.random.Generator,
    *,
    metric_kinds: tuple[str, ...] = ("bures",),
    n_grids: int = 5,
    grid_size: int = 5,
    grid_range: tuple[float, float] = (-2.0, 2.0),
    tol: Tolerances = DEFAULT,
) -> dict[str, VolumeEstimate]:
    """Volume estimates for several metrics from one set of grids.

    Draws n_grids random grids from the caller-owned stream, discretizes
    once per grid, and evaluates every requested metric on the shared
    spectra.  Any rejected kernel discards the whole sample by raising
    SampleDiscarded.  This is _volume_logs on a stack of one matrix.
    """
    lo, hi = grid_range
    grids = [random_grid(grid_size, rng, lo, hi, tol) for _ in range(n_grids)]
    coords = np.array([grids], dtype=float)
    discarded, logs = _volume_logs(np.asarray(M, dtype=float)[None], coords, metric_kinds, tol)
    if discarded[0]:
        raise SampleDiscarded("a kernel eigenvalue fell to the relative spectrum floor")
    return {kind: VolumeEstimate.from_log_volumes(logs[kind][0], kind) for kind in metric_kinds}

