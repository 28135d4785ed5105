"""Independent reference implementations used only by the tests.

Everything here is deliberately written against different formulations
than the package: the two-parameter reduction is solved by a bracketed
one-dimensional scan instead of Newton, kernels come from brute-force
Fourier quadrature of the phase-space density, fidelity comes from
operator square roots of discretized kernels, and the Jeffreys census
decides every verdict by batched eigenvalue tests.  The per-grid kernel
pipeline keeps the one-kernel-at-a-time formulation the package's
batched volume stage must reproduce bit for bit: every lattice entry by
np.einsum, the lower triangle mirrored by conjugation, one eigensolve
per grid.  Likewise the per-sample filter chain keeps the one-matrix-
at-a-time classify, in Python floats and math, that the package's
stacked classify must reproduce bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np
import numpy.polynomial.legendre as leg

from gausscensus import criteria
from gausscensus.montecarlo import _build_matrices, _candidates
from gausscensus.rng import BLOCK, substream_uniforms
from gausscensus.states import SolverFailure
from gausscensus.tolerances import DEFAULT, Tolerances


def rotation(theta: float) -> np.ndarray:
    c, s = math.cos(theta), math.sin(theta)
    return np.array([[c, -s], [s, c]])


def random_local_symplectic(rng: np.random.Generator) -> np.ndarray:
    """Block-diagonal symplectic: per mode R(phi) diag(z, 1/z) R(psi)."""
    S = np.zeros((4, 4))
    for b in (0, 2):
        z = math.exp(rng.uniform(-0.7, 0.7))
        block = rotation(rng.uniform(0, 2 * math.pi)) @ np.diag([z, 1 / z])
        block = block @ rotation(rng.uniform(0, 2 * math.pi))
        S[b:b + 2, b:b + 2] = block
    return S


def form_one_matrix(n: float, m: float, c: float, cp: float) -> np.ndarray:
    return np.array([
        [n, 0, c, 0],
        [0, n, 0, cp],
        [c, 0, m, 0],
        [0, cp, 0, m],
    ], dtype=float)


def form_two_scan(n: float, m: float, c: float, cp: float,
                  points: int = 20001) -> dict | None:
    """Solve the two-parameter reduction by scan plus bisection.

    Uses the n1*n2 = n^2, m1*m2 = m^2 constraints to eliminate all but
    n1, solves the cross-ratio condition for m1 as a quadratic in closed
    form, and bisects the remaining scalar equation on n1 in (1, n^2).
    Returns None when no admissible root is bracketed.
    """
    ac, acp = abs(c), abs(cp)

    def m1_of(n1: float) -> float | None:
        A = n * n - n1
        B = n1 * (n1 - 1.0) - (n * n - n1)
        C = -n1 * (n1 - 1.0) * m * m
        if abs(A) < 1e-14:
            return -C / B if B != 0.0 else None
        disc = B * B - 4.0 * A * C
        if disc < 0.0:
            return None
        return (-B + math.sqrt(disc)) / (2.0 * A)

    def phi(n1: float) -> float | None:
        m1 = m1_of(n1)
        if m1 is None or m1 <= 0.0:
            return None
        n2 = n * n / n1
        m2 = m * m / m1
        if min(n1, m1, n2, m2) < 1.0:
            return None
        s = math.sqrt((n1 * m1) / (n * m))
        R1 = math.sqrt((n1 - 1.0) * (m1 - 1.0))
        R2 = math.sqrt((n2 - 1.0) * (m2 - 1.0))
        return ac * s - acp / s - (R1 - R2)

    lo_edge = 1.0 + 1e-12
    hi_edge = n * n - 1e-12
    if hi_edge <= lo_edge:
        return None
    xs = np.linspace(lo_edge, hi_edge, points)
    vals = [phi(x) for x in xs]
    bracket = None
    for i in range(points - 1):
        a, b = vals[i], vals[i + 1]
        if a is None or b is None:
            continue
        if a == 0.0:
            bracket = (xs[i], xs[i])
            break
        if a * b < 0.0:
            bracket = (xs[i], xs[i + 1])
            break
    if bracket is None:
        return None
    lo, hi = bracket
    flo = phi(lo)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        fm = phi(mid)
        if fm is None:
            return None
        if flo * fm <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fm
    n1 = 0.5 * (lo + hi)
    m1 = m1_of(n1)
    n2 = n * n / n1
    m2 = m * m / m1
    s = math.sqrt((n1 * m1) / (n * m))
    c1 = (ac if c >= 0.0 else -ac) * s
    c2 = cp / s
    if abs(n1 - 1.0) <= 1e-9 or abs(m1 - 1.0) <= 1e-9:
        a0 = 1.0
    else:
        a0 = ((m1 - 1.0) / (n1 - 1.0)) ** 0.25
    return {"n1": n1, "n2": n2, "m1": m1, "m2": m2,
            "c1": c1, "c2": c2, "a0": a0}


def kernel_by_quadrature(M: np.ndarray, x, xp, n: int = 120) -> complex:
    """Position kernel from Fourier quadrature of the phase-space density.

    Integrates exp(-z M^-1 z / 2) against exp(+i p.(x - xp) / 2) over
    momentum with tensor Gauss-Legendre nodes, then normalizes by the
    same integral at the origin.  The node count grows with the largest
    phase frequency |x - xp| so widely separated points stay resolved.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0] // 2
    Minv = np.linalg.inv(M)
    L = 10.0 * math.sqrt(float(np.linalg.eigvalsh(M).max()))
    vmax = float(np.abs(np.asarray(x, dtype=float) - np.asarray(xp, dtype=float)).max())
    n = max(n, math.ceil(1.5 * L * vmax))
    nodes, weights = leg.leggauss(n)
    p = L * nodes
    w = L * weights

    def integral(q: np.ndarray, v: np.ndarray) -> complex:
        if d == 1:
            z = np.empty((n, 2))
            z[:, 0] = q[0]
            z[:, 1] = p
            quad_form = np.einsum("ai,ij,aj->a", z, Minv, z)
            return complex((w * np.exp(-0.5 * quad_form + 0.5j * p * v[0])).sum())
        total = 0.0 + 0.0j
        for i in range(n):
            z = np.empty((n, 4))
            z[:, 0] = q[0]
            z[:, 1] = p[i]
            z[:, 2] = q[1]
            z[:, 3] = p
            quad_form = np.einsum("ai,ij,aj->a", z, Minv, z)
            phase = 0.5j * (p[i] * v[0] + p * v[1])
            total += (w[i] * (w * np.exp(-0.5 * quad_form + phase))).sum()
        return complex(total)

    x = np.asarray(x, dtype=float)
    xp = np.asarray(xp, dtype=float)
    q = 0.5 * (x + xp)
    v = x - xp
    origin = np.zeros(d)
    return integral(q, v) / integral(origin, origin)


def density_matrix(A: np.ndarray, m: int = 21) -> np.ndarray:
    """Trace-normalized kernel matrix on a unit-spacing grid, built from
    the phase-space quadrature alone (independent of the library)."""
    A = np.asarray(A, dtype=float)
    coords = np.arange(m, dtype=float) - 0.5 * (m - 1)
    gamma = np.empty((m, m), dtype=complex)
    for i in range(m):
        for j in range(i, m):
            val = kernel_by_quadrature(A, coords[i : i + 1], coords[j : j + 1])
            gamma[i, j] = val
            gamma[j, i] = np.conj(val)
    gamma = 0.5 * (gamma + gamma.conj().T)
    return gamma / np.trace(gamma).real


def fidelity_by_kernels(A1: np.ndarray, A2: np.ndarray, m: int = 21) -> float:
    """Squared trace fidelity (Tr sqrt(sqrt(rho1) rho2 sqrt(rho1)))^2 on
    discretized kernels; the square matches the determinant formula's
    convention."""
    r1 = density_matrix(A1, m)
    r2 = density_matrix(A2, m)
    w, V = np.linalg.eigh(r1)
    root = (V * np.sqrt(np.clip(w, 0.0, None))) @ V.conj().T
    inner = root @ r2 @ root
    ev = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sqrt(np.clip(ev, 0.0, None)).sum()) ** 2


def random_physical_matrix(rng: np.random.Generator,
                           shift: float = 1.5) -> np.ndarray:
    """Random matrix guaranteed physical: A A^T plus a shift past 1."""
    A = rng.normal(size=(4, 4))
    return A @ A.T + shift * np.eye(4)


def grid_coords(rng: np.random.Generator, m: int = 5, lo: float = -2.0,
                hi: float = 2.0, coincidence: float = 1e-9) -> np.ndarray:
    """Sorted uniform coordinates on [lo, hi], redrawn on coincidences."""
    for _ in range(1000):
        coords = np.sort(rng.uniform(lo, hi, size=m))
        if m < 2 or float(np.diff(coords).min()) >= coincidence:
            return coords
    raise RuntimeError("could not draw distinct grid coordinates")


def kernel_on_grid(M: np.ndarray, coords: np.ndarray,
                   floor_rel: float = 1e-13) -> tuple:
    """One discretized kernel, entry by entry over the whole lattice.

    Returns (gamma, normalized spectrum, log det); the last two are None
    when the smallest eigenvalue is at or below floor_rel times the
    largest.
    """
    M = np.asarray(M, dtype=float)
    d = M.shape[0] // 2
    perm = [0, 1] if d == 1 else [0, 2, 1, 3]
    K = np.linalg.inv(M[np.ix_(perm, perm)])
    Kqq, Kqp, Kpp = K[:d, :d], K[:d, d:], K[d:, d:]
    w = np.linalg.eigvalsh(Kpp)
    assert np.isfinite(w).all() and w[0] > 1e-14 * max(abs(w[-1]), 1e-300)
    Kpp_inv = np.linalg.inv(Kpp)
    Aq = Kqq - Kqp @ Kpp_inv @ Kqp.T
    Cqv = Kqp @ Kpp_inv
    coords = np.asarray(coords, dtype=float)
    if d == 1:
        pts = coords[:, None]
    else:
        m = len(coords)
        pts = np.column_stack([np.repeat(coords, m), np.tile(coords, m)])
    q = 0.5 * (pts[:, None, :] + pts[None, :, :])
    v = pts[:, None, :] - pts[None, :, :]
    re = -0.5 * np.einsum("abi,ij,abj->ab", q, Aq, q)
    re -= 0.125 * np.einsum("abi,ij,abj->ab", v, Kpp_inv, v)
    im = -0.5 * np.einsum("abi,ij,abj->ab", q, Cqv, v)
    gamma = np.exp(re + 1j * im)
    rows = np.arange(gamma.shape[0])
    upper = rows[:, None] <= rows[None, :]
    gamma = np.where(upper, gamma, np.conj(gamma.T))
    w = np.linalg.eigvalsh(gamma)
    if w[0] <= floor_rel * w[-1]:
        return gamma, None, None
    lam = w / w.sum()
    return gamma, lam, float(np.log(lam).sum())


def log_volume_of_spectrum(lam: np.ndarray, kind: str) -> float:
    """Log volume element of one normalized spectrum, pair by pair."""
    i, j = np.triu_indices(len(lam), k=1)
    a, b = lam[i], lam[j]
    if kind == "bures":
        pair = a + b
    elif kind == "kubo_mori":
        d = a - b
        safe = np.where(d == 0.0, 1.0, np.log1p(d / b))
        pair = 2.0 * np.where(d == 0.0, a, d / safe)
    elif kind == "maximal":
        pair = a * b / (a + b)
    else:
        raise ValueError(kind)
    return float(-0.5 * np.log(lam).sum() - np.log(pair).sum())


def volumes_on_grids(M: np.ndarray, grids: list, kinds: tuple) -> dict | None:
    """Per-metric (log volumes, median, trimmed mean) over the grids.

    One kernel per grid; None when any kernel is rejected.  The trimmed
    mean drops the lowest and highest value when there are three or more.
    """
    spectra = []
    for coords in grids:
        _, lam, _ = kernel_on_grid(M, coords)
        if lam is None:
            return None
        spectra.append(lam)
    out = {}
    for kind in kinds:
        values = np.array([log_volume_of_spectrum(lam, kind) for lam in spectra])
        ordered = np.sort(values)
        if len(ordered) >= 3:
            ordered = ordered[1:-1]
        out[kind] = (values, float(np.median(values)), float(ordered.mean()))
    return out


@dataclass(frozen=True)
class ExactCensus:
    """Counts and Jeffreys-weighted probabilities of the eigenvalue census.

    near_boundary counts samples with a margin within the boundary band
    of its threshold, where a census may legitimately decide either way.
    """

    accepted: int
    separable: int
    classical: int
    near_boundary: int
    prob_sep: float
    prob_classical: float


def _log_sum_exp(xs: list[np.ndarray]) -> float:
    x = np.concatenate(xs)
    if x.size == 0:
        return -math.inf
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def exact_census(cfg, tol) -> ExactCensus:
    """Two-mode Jeffreys census decided by eigenvalues alone.

    Only the uniforms are shared with the package.  Diagonals are k*u on
    columns 0-3, off-diagonals -l + 2l*u in row-major order on columns
    4-9.  A sample is positive definite when min eig M > 0, physical
    when min eig(M + i*Omega) >= tol.physical_min_eig, separable when
    the momentum-mirrored matrix passes the same test against
    tol.ppt_min_eig, and classical when it is separable and
    min eig(M - I) > tol.classical_min_eig.  Physical samples carry the
    weight det(M)^(-5/2), with log det M summed from the eigenvalues.
    """
    omega = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
    flip = np.array([1.0, 1.0, 1.0, -1.0])
    rows, cols = np.triu_indices(4, 1)
    counts = dict(accepted=0, separable=0, classical=0, near_boundary=0)
    lw_acc, lw_sep, lw_cls = [], [], []
    chunk = 65536
    for start in range(0, cfg.samples, chunk):
        count = min(chunk, cfg.samples - start)
        u = substream_uniforms(cfg.seed, start, count, width=10)
        M = np.zeros((count, 4, 4))
        M[:, range(4), range(4)] = cfg.k * u[:, :4]
        M[:, rows, cols] = -cfg.l + 2.0 * cfg.l * u[:, 4:]
        M[:, cols, rows] = M[:, rows, cols]
        spec = np.linalg.eigvalsh(M)
        pd = spec[:, 0] > 0.0
        M, spec = M[pd], spec[pd]
        phys_margin = np.linalg.eigvalsh(M + 1j * omega)[:, 0]
        mirrored = M * flip[:, None] * flip[None, :]
        ppt_margin = np.linalg.eigvalsh(mirrored + 1j * omega)[:, 0]
        cls_margin = np.linalg.eigvalsh(M - np.eye(4))[:, 0]
        phys = phys_margin >= tol.physical_min_eig
        sep = phys & (ppt_margin >= tol.ppt_min_eig)
        cls = sep & (cls_margin > tol.classical_min_eig)
        band = tol.margin_band
        near = (
            (np.abs(phys_margin - tol.physical_min_eig) <= band)
            | (phys & (np.abs(ppt_margin - tol.ppt_min_eig) <= band))
            | (sep & (np.abs(cls_margin - tol.classical_min_eig) <= band))
        )
        counts["accepted"] += int(phys.sum())
        counts["separable"] += int(sep.sum())
        counts["classical"] += int(cls.sum())
        counts["near_boundary"] += int(near.sum())
        lw = -2.5 * np.log(spec).sum(axis=1)
        lw_acc.append(lw[phys])
        lw_sep.append(lw[sep])
        lw_cls.append(lw[cls])
    log_acc = _log_sum_exp(lw_acc)
    return ExactCensus(
        prob_sep=math.exp(_log_sum_exp(lw_sep) - log_acc),
        prob_classical=math.exp(_log_sum_exp(lw_cls) - log_acc),
        **counts,
    )


# ---------------------------------------------------------------------
# The full-materialising two-mode front end: every sample's ten uniforms
# and its matrix, then Sylvester's screen on the whole stack, as each
# block ran it before the screen moved ahead of the third Philox counter
# block.  `pd_candidates` is kept verbatim (it was
# montecarlo._pd_candidates); montecarlo._candidates must reproduce
# `materialised_candidates` bit for bit.

# The seven box shapes of the stacked front-end and classify checks:
# the Table 1 rows, the Bures box, and a narrow and a very wide box.
STACK_CONFIGS = [(10, 5), (500, 250), (20, 10), (30, 20), (15, 15), (3, 2), (1000, 1000)]


def pd_candidates(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
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


def materialised_candidates(seed: int, start: int, count: int, k: float, l: float) -> tuple:
    """A block's candidate positions, matrices and determinants."""
    u = substream_uniforms(seed, start, count, width=10)
    M = _build_matrices(u, k, l)
    idx, dets = pd_candidates(M)
    return idx, M[idx], dets


def sample_stream(seed: int, index: int) -> np.random.Generator:
    """numpy's own Philox stream of one sample, keyed (seed, index)."""
    return np.random.Generator(np.random.Philox(key=np.array([seed, index], dtype=np.uint64)))


# Row-major order of the six distinct off-diagonal positions.
PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def sample_matrix(cfg, stream: np.random.Generator) -> np.ndarray:
    """Draw one symmetric matrix from the configured box.

    Diagonal entries are uniform on [0, k]; the distinct off-diagonals
    (row-major) are uniform on [-l, l].  The census's block sampler must
    match it bit for bit when the stream is the sample's own substream.
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
    for t, (i, j) in enumerate(PAIRS):
        M[i, j] = M[j, i] = off[t]
    return M


def same_value(a, b) -> np.ndarray:
    """Elementwise a == b, with NaN equal to NaN: a verdict field such as
    margin_ppt is NaN on the lanes where it is not kept."""
    a, b = np.asarray(a), np.asarray(b)
    eq = a == b
    if a.dtype.kind == "f" or b.dtype.kind == "f":
        eq |= np.isnan(a) & np.isnan(b)
    return eq


# ---------------------------------------------------------------------
# The three eigenvalue tests as the package ran them on whole stacks
# before it read their verdicts from closed-form leading minors: one
# stacked eigvalsh each, its min eigenvalue against the threshold.  The
# package's verdicts must equal these bit for bit.

_EIG_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_EIG_MIRROR_SIGNS = np.outer([1.0, 1.0, 1.0, -1.0], [1.0, 1.0, 1.0, -1.0])


def eigvalsh_is_physical(M: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """min eig(M + i*Omega) >= tol.physical_min_eig, lane by lane."""
    return np.linalg.eigvalsh(M + 1j * _EIG_OMEGA)[:, 0] >= tol.physical_min_eig


def eigvalsh_is_ppt(M: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """min eig(mirrored M + i*Omega) >= tol.ppt_min_eig, lane by lane."""
    return np.linalg.eigvalsh(M * _EIG_MIRROR_SIGNS + 1j * _EIG_OMEGA)[:, 0] >= tol.ppt_min_eig


def eigvalsh_is_classical(M: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """min eig(M - I) > tol.classical_min_eig, lane by lane."""
    return np.linalg.eigvalsh(M - np.eye(4))[:, 0] > tol.classical_min_eig


@dataclass(frozen=True)
class LaneVerdict:
    """One lane of a stacked criteria.Verdict, field by field."""

    physical: bool
    separable: bool
    classical: bool
    margin_sep: float
    margin_ppt: float
    failure: int


def accepted_samples(cfg):
    """Yield (index, matrix, verdict) for each accepted sample in order.

    A two-mode census's candidates and stacked classify, replayed one
    block at a time: a candidate is accepted when it is physical and its
    form-I and form-II solves succeed.  Its verdict is its lane of the
    block's stacked verdict.
    """
    for start in range(0, cfg.samples, BLOCK):
        count = min(BLOCK, cfg.samples - start)
        index, M, _ = _candidates(cfg.seed, start, count, cfg.k, cfg.l)
        verdict = criteria.classify(M)
        for i in np.flatnonzero(verdict.physical & (verdict.failure == 0)):
            lane = LaneVerdict(*(getattr(verdict, f.name)[i].item() for f in fields(LaneVerdict)))
            yield start + int(index[i]), M[i], lane


# ---------------------------------------------------------------------
# The per-sample filter chain: classify, the form-I and form-II
# reductions, the damped Newton and the three eigenvalue tests as the
# package ran them one matrix at a time, in Python floats and math,
# before its stages took stacks.  The function bodies are kept verbatim
# (only the names carry a chain_ prefix); the stacked classify must
# reproduce them bit for bit, its failure causes included.  The chain's
# exceptions, which the package no longer has, are defined here with it,
# and CHAIN_ERRORS ties each one to the SolverFailure code a stack marks.

_CHAIN_OMEGA = np.zeros((4, 4))
_CHAIN_OMEGA[:2, :2] = _CHAIN_OMEGA[2:, 2:] = [[0.0, 1.0], [-1.0, 0.0]]
_CHAIN_MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])
_CHAIN_EYE4 = np.eye(4)


class ComplexRootError(ValueError):
    """The cross-term quadratic of the form-I split has no real roots."""


class NoConvergenceError(RuntimeError):
    """The form-II solver failed to reach an admissible root."""


class DegenerateError(ValueError):
    """Both local invariants are unity while a cross term is nonzero."""


#: The errors a chain solve raises where the stacked forms mark a lane.
CHAIN_SOLVER_ERRORS = (NoConvergenceError, DegenerateError, ComplexRootError)

#: The chain's (exception type, message) for each SolverFailure code.
#: A complex-root message also carries the discriminant, so that error
#: is known by its type alone (message None).
CHAIN_ERRORS = {
    SolverFailure.COMPLEX_ROOT: (ComplexRootError, None),
    SolverFailure.BELOW_VACUUM: (ValueError, "form II requires n >= 1 and m >= 1"),
    SolverFailure.DEGENERATE: (DegenerateError, "unit local invariants with nonzero cross term"),
    SolverFailure.START_OUTSIDE: (NoConvergenceError, "start point outside the solver domain"),
    SolverFailure.SINGULAR_JACOBIAN: (NoConvergenceError, "singular Jacobian"),
    SolverFailure.LINE_SEARCH_STALLED: (NoConvergenceError, "line search stalled"),
    SolverFailure.BUDGET_EXHAUSTED: (NoConvergenceError, "iteration budget exhausted"),
    SolverFailure.INADMISSIBLE_ROOT: (NoConvergenceError, "root outside the admissible branch"),
}


def chain_failure(exc: Exception) -> SolverFailure:
    """The SolverFailure code of an error the chain raised."""
    (code,) = [code for code, (kind, message) in CHAIN_ERRORS.items()
               if type(exc) is kind and message in (None, str(exc))]
    return code


@dataclass(frozen=True)
class ChainFormI:
    n: float
    m: float
    c: float
    cp: float


@dataclass(frozen=True)
class ChainFormII:
    n1: float
    n2: float
    m1: float
    m2: float
    c1: float
    c2: float
    a0: float
    r1: float
    r2: float


@dataclass(frozen=True)
class ChainVarianceReport:
    total_variance: float
    uncertainty_bound: float
    separability_bound: float
    a0: float


@dataclass(frozen=True)
class ChainVerdict:
    physical: bool
    separable: bool
    classical: bool
    margin_sep: float
    margin_ppt: float


def mode_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    M = np.asarray(M, dtype=float)
    return M[:2, :2], M[2:, 2:], M[:2, 2:]


def _det2(X: np.ndarray) -> float:
    return float(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])


def chain_is_physical(M: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """Uncertainty-principle test: M + i*Omega positive semidefinite."""
    M = np.asarray(M, dtype=float)
    w = np.linalg.eigvalsh(M + 1j * _CHAIN_OMEGA)
    return bool(w[0] >= tol.physical_min_eig)


def chain_form_one(M: np.ndarray, tol: Tolerances = DEFAULT) -> ChainFormI:
    """Reduce a positive definite matrix to its form-I invariants.

    The four numbers are obtained from the local-symplectic invariants
    det A, det B, det C and det M alone: n = sqrt(det A), m = sqrt(det B),
    and c^2, cp^2 are the roots of t^2 - S t + (det C)^2 with
    S = (n^2 m^2 + (det C)^2 - det M) / (n m).  Signs follow the
    convention c >= 0, |c| >= |cp|, sign(c * cp) = sign(det C).

    Raises ComplexRootError when the quadratic has no real roots beyond
    numerical tolerance, which signals an inconsistent input.
    """
    M = np.asarray(M, dtype=float)
    A, B, C = mode_blocks(M)
    det_c = _det2(C)
    det_m = float(np.linalg.det(M))
    n = math.sqrt(_det2(A))
    m = math.sqrt(_det2(B))
    S = (n * n * m * m + det_c * det_c - det_m) / (n * m)
    disc = S * S - 4.0 * det_c * det_c
    scale = max(S * S, 4.0 * det_c * det_c, 1.0)
    if disc < -tol.complex_root_rel * scale:
        raise ComplexRootError(
            f"cross-term quadratic discriminant {disc:.3e} below zero"
        )
    root = math.sqrt(max(disc, 0.0))
    c = math.sqrt(max(0.5 * (S + root), 0.0))
    cp = math.sqrt(max(0.5 * (S - root), 0.0))
    if det_c < 0.0:
        cp = -cp
    return ChainFormI(n, m, c, cp)


def _chain_form_two_state(u: float, v: float, n: float, m: float, ac: float, acp: float):
    # Residuals and Jacobian of the balancing system at (log r1, log r2) = (u, v).
    # Returns None when the iterate leaves the domain of the square roots.
    if abs(u) > 300.0 or abs(v) > 300.0:
        return None
    eu = math.exp(u)
    ev = math.exp(v)
    al = eu * n
    be = n / eu
    ga = ev * m
    de = m / ev
    P1 = (al - 1.0) * (ga - 1.0)
    P2 = (be - 1.0) * (de - 1.0)
    if P1 < 0.0 or P2 < 0.0:
        return None
    R1 = math.sqrt(P1)
    R2 = math.sqrt(P2)
    s = math.exp(0.5 * (u + v))
    F1 = (al - 1.0) * (de - 1.0) - (be - 1.0) * (ga - 1.0)
    F2 = ac * s - acp / s - R1 + R2
    h = 0.5 * (ac * s + acp / s)
    e1 = 2.0 * R1 if R1 > 5e-13 else 1e-12
    e2 = 2.0 * R2 if R2 > 5e-13 else 1e-12
    J11 = al * (de - 1.0) + be * (ga - 1.0)
    J12 = -de * (al - 1.0) - ga * (be - 1.0)
    J21 = h - al * (ga - 1.0) / e1 - be * (de - 1.0) / e2
    J22 = h - ga * (al - 1.0) / e1 - de * (be - 1.0) / e2
    return F1, F2, J11, J12, J21, J22, al, be, ga, de, s


def chain_form_two(f1: ChainFormI, tol: Tolerances = DEFAULT) -> ChainFormII:
    """Solve the squeeze-balancing system and assemble form II.

    Finds local squeeze factors r1, r2 > 0 satisfying

        (r1 n - 1)(m / r2 - 1) = (n / r1 - 1)(r2 m - 1)
        |c| sqrt(r1 r2) - |cp| / sqrt(r1 r2)
            = sqrt((r1 n - 1)(r2 m - 1)) - sqrt((n / r1 - 1)(m / r2 - 1))

    by a damped Newton iteration on (log r1, log r2) started at (0, 0),
    then sets n1 = r1 n, n2 = n / r1, m1 = r2 m, m2 = m / r2,
    c1 = c sqrt(r1 r2), c2 = cp / sqrt(r1 r2) and
    a0^2 = sqrt((m1 - 1) / (n1 - 1)), with a0 = 1 in the degenerate case.

    Raises NoConvergenceError when no admissible root is reached within
    the iteration budget and DegenerateError when n = m = 1 with a
    nonzero cross term.
    """
    n, m, c, cp = f1.n, f1.m, f1.c, f1.cp
    if n < 1.0 or m < 1.0:
        raise ValueError("form II requires n >= 1 and m >= 1")
    if (
        abs(n - 1.0) <= tol.degenerate_abs
        and abs(m - 1.0) <= tol.degenerate_abs
        and abs(c) > tol.degenerate_abs
    ):
        raise DegenerateError("unit local invariants with nonzero cross term")
    ac = abs(c)
    acp = abs(cp)
    u = v = 0.0
    state = _chain_form_two_state(u, v, n, m, ac, acp)
    if state is None:
        raise NoConvergenceError("start point outside the solver domain")
    merit = state[0] * state[0] + state[1] * state[1]
    resid = tol.newton_residual
    for _ in range(tol.newton_max_iter):
        F1, F2, J11, J12, J21, J22, al, be, ga, de, s = state
        if abs(F1) < resid and abs(F2) < resid:
            return _chain_assemble_form_two(al, be, ga, de, s, c, cp, u, v, tol)
        det = J11 * J22 - J12 * J21
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError("singular Jacobian")
        du = -(J22 * F1 - J12 * F2) / det
        dv = -(-J21 * F1 + J11 * F2) / det
        step = 1.0
        moved = False
        for _ in range(40):
            trial = _chain_form_two_state(u + step * du, v + step * dv, n, m, ac, acp)
            if (
                trial is not None
                and math.isfinite(trial[0])
                and math.isfinite(trial[1])
            ):
                trial_merit = trial[0] * trial[0] + trial[1] * trial[1]
                if trial_merit < merit:
                    u += step * du
                    v += step * dv
                    state, merit = trial, trial_merit
                    moved = True
                    break
            step *= 0.5
        if not moved:
            raise NoConvergenceError("line search stalled")
    raise NoConvergenceError("iteration budget exhausted")


def _chain_assemble_form_two(
    al: float,
    be: float,
    ga: float,
    de: float,
    s: float,
    c: float,
    cp: float,
    u: float,
    v: float,
    tol: Tolerances,
) -> ChainFormII:
    n1, n2, m1, m2 = al, be, ga, de
    if abs(n1 - 1.0) <= tol.degenerate_abs or abs(m1 - 1.0) <= tol.degenerate_abs:
        a0 = 1.0
    else:
        radicand = (m1 - 1.0) / (n1 - 1.0)
        if radicand <= 0.0:
            raise NoConvergenceError("root outside the admissible branch")
        a0 = radicand**0.25
    return ChainFormII(
        n1=n1,
        n2=n2,
        m1=m1,
        m2=m2,
        c1=c * s,
        c2=cp / s,
        a0=a0,
        r1=math.exp(u),
        r2=math.exp(v),
    )


def chain_total_variance(f2: ChainFormII) -> ChainVarianceReport:
    """Evaluate the scaled sum/difference variance and its bounds.

    chain_total_variance = (1/2) [a0^2 (n1 + n2) + (m1 + m2) / a0^2]
                     - |c1| - |c2|,
    normalized so the separability threshold is exactly
    a0^2 + 1/a0^2.
    """
    a0sq = f2.a0 * f2.a0
    tv = (
        0.5 * (a0sq * (f2.n1 + f2.n2) + (f2.m1 + f2.m2) / a0sq)
        - abs(f2.c1)
        - abs(f2.c2)
    )
    sep_bound = a0sq + 1.0 / a0sq
    if f2.c1 * f2.c2 > 0.0:
        unc_bound = sep_bound
    else:
        unc_bound = abs(a0sq - 1.0 / a0sq)
    return ChainVarianceReport(tv, unc_bound, sep_bound, f2.a0)


def chain_is_separable_ppt(
    M: np.ndarray, tol: Tolerances = DEFAULT
) -> tuple[bool, float]:
    """Mirror-reflection oracle.

    Reflects the momentum of mode 2 and checks that the reflected matrix
    still satisfies the uncertainty relation.  Returns the verdict and
    the minimum eigenvalue of reflected-M + i*Omega as a signed margin.
    This test is necessary and sufficient for two-mode Gaussian states.
    """
    M = np.asarray(M, dtype=float)
    reflected = _CHAIN_MIRROR @ M @ _CHAIN_MIRROR
    margin = float(np.linalg.eigvalsh(reflected + 1j * _CHAIN_OMEGA)[0])
    return margin >= tol.ppt_min_eig, margin


def chain_is_classical(M: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """Positive-P test: M - I strictly positive definite."""
    M = np.asarray(M, dtype=float)
    w = np.linalg.eigvalsh(M - _CHAIN_EYE4)
    return bool(w[0] > tol.classical_min_eig)


def chain_classify(M: np.ndarray, tol: Tolerances = DEFAULT) -> ChainVerdict:
    """Run the full filter chain on one positive definite matrix.

    Chain: the physicality gate M + i*Omega >= 0 (states.is_physical),
    the form-I reduction, the form-II solve, then the separability and
    classicality verdicts.  Unphysical matrices leave at the gate
    without a form-II solve.  The mirror margin is always computed so
    the caller can compare the two separability tests.  Solver errors
    from the form-I and form-II stages propagate to the caller.
    """
    _, margin_ppt = chain_is_separable_ppt(M, tol)
    if not chain_is_physical(M, tol):
        return ChainVerdict(False, False, False, math.nan, margin_ppt)
    f1 = chain_form_one(M, tol)
    # Physical means det A, det B >= 1 up to the gate tolerance, so n and
    # m can only round below one on the boundary itself.
    f1 = replace(f1, n=max(f1.n, 1.0), m=max(f1.m, 1.0))
    f2 = chain_form_two(f1, tol)
    report = chain_total_variance(f2)
    margin_sep = report.total_variance - report.separability_bound
    separable = margin_sep >= -tol.variance_slack
    classical = separable and chain_is_classical(M, tol)
    return ChainVerdict(True, separable, classical, margin_sep, margin_ppt)
