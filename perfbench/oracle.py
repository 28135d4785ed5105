"""Eigenvalue census and the checks that compare census output with it.

The oracle shares only the uniforms with the program, and every chunk
of uniforms is spot-checked against numpy's own Philox generator, so it
does not rest on `gausscensus.rng` alone.  After the uniforms it is its
own batched `eigvalsh` code: a sample is positive definite when
min eig M > 0, physical when min eig(M + i*Omega) >= physical_min_eig,
separable when the momentum-mirrored matrix passes the same test
against ppt_min_eig, and classical when it is separable and
min eig(M - I) > classical_min_eig.  Physical samples carry the weight
det(M)^(-5/2), with log det M summed from the eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from gausscensus.rng import substream_uniforms

CHUNK = 65536
SPOT_CHECKS_PER_CHUNK = 8

_OMEGA = np.kron(np.eye(2), np.array([[0.0, 1.0], [-1.0, 0.0]]))
_FLIP = np.array([1.0, 1.0, 1.0, -1.0])
_ROWS, _COLS = np.triu_indices(4, 1)

#: The damped Newton of `states.to_standard_form_two` raises
#: NoConvergenceError on physical states in wide boxes; the census then
#: drops them from the population and counts them as solver failures.
NEWTON_FAULT = (
    "states.to_standard_form_two (damped Newton) raised NoConvergenceError "
    "on physical samples, which the census dropped as solver failures"
)


class UniformMismatch(AssertionError):
    """A spot-checked row of uniforms differs from numpy's Philox."""


@dataclass(frozen=True)
class Reference:
    """What an exact census of one (k, l, samples, seed) finds."""

    k: float
    l: float
    samples: int
    seed: int
    accepted: int
    separable: int
    classical: int
    near_boundary: int
    prob_sep: float
    prob_classical: float


def _log_sum_exp(parts: list[np.ndarray]) -> float:
    x = np.concatenate(parts) if parts else np.empty(0)
    if x.size == 0:
        return -math.inf
    top = float(x.max())
    return top + math.log(float(np.exp(x - top).sum()))


def _spot_check(u: np.ndarray, seed: int, start: int, picker: np.random.Generator) -> None:
    for row in picker.integers(0, u.shape[0], size=min(SPOT_CHECKS_PER_CHUNK, u.shape[0])):
        key = np.array([seed, start + int(row)], dtype=np.uint64)
        expect = np.random.Generator(np.random.Philox(key=key)).random(u.shape[1])
        if not np.array_equal(u[row], expect):
            raise UniformMismatch(
                f"uniforms of sample {start + int(row)} (seed {seed}) differ "
                "from numpy.random.Philox"
            )


def eigen_census(k: float, l: float, samples: int, seed: int, tol) -> Reference:
    """Jeffreys census of the box [0, k]^4 x [-l, l]^6 by eigenvalues."""
    picker = np.random.default_rng([seed, samples])
    counts = dict(accepted=0, separable=0, classical=0, near_boundary=0)
    lw_acc, lw_sep, lw_cls = [], [], []
    band = tol.margin_band
    for start in range(0, samples, CHUNK):
        count = min(CHUNK, samples - start)
        u = substream_uniforms(seed, start, count, width=10)
        _spot_check(u, seed, start, picker)
        diag = k * u[:, :4]
        off = -l + 2.0 * l * u[:, 4:]
        # Necessary for positive definiteness: positive diagonal and 2x2
        # principal minors; the eigenvalues below decide.
        minors = diag[:, _ROWS] * diag[:, _COLS] - off * off
        keep = np.nonzero((diag > 0.0).all(axis=1) & (minors > 0.0).all(axis=1))[0]
        M = np.zeros((keep.size, 4, 4))
        M[:, range(4), range(4)] = diag[keep]
        M[:, _ROWS, _COLS] = off[keep]
        M[:, _COLS, _ROWS] = off[keep]
        spec = np.linalg.eigvalsh(M)
        pd = spec[:, 0] > 0.0
        M, spec = M[pd], spec[pd]
        phys_margin = np.linalg.eigvalsh(M + 1j * _OMEGA)[:, 0]
        mirrored = M * _FLIP[:, None] * _FLIP[None, :]
        ppt_margin = np.linalg.eigvalsh(mirrored + 1j * _OMEGA)[:, 0]
        cls_margin = np.linalg.eigvalsh(M - np.eye(4))[:, 0]
        phys = phys_margin >= tol.physical_min_eig
        sep = phys & (ppt_margin >= tol.ppt_min_eig)
        cls = sep & (cls_margin > tol.classical_min_eig)
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
    if log_acc == -math.inf:
        prob_sep = prob_cls = math.nan
    else:
        prob_sep = math.exp(_log_sum_exp(lw_sep) - log_acc)
        prob_cls = math.exp(_log_sum_exp(lw_cls) - log_acc)
    return Reference(k=k, l=l, samples=samples, seed=seed,
                     prob_sep=prob_sep, prob_classical=prob_cls, **counts)


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_jeffreys(row: dict, ref: Reference) -> tuple[list[str], bool]:
    """Compare one Jeffreys census row with the eigenvalue census.

    `row` holds k, l, samples, seed, accepted, separable, classical,
    prob_sep, prob_classical and, when known, solver_failures.  Returns
    the list of problems (empty when the row is right) and whether the
    problems are explained by the known Newton fault: the census lost
    exactly the physical samples it counted as solver failures.
    """
    problems = []
    for key in ("k", "l", "samples", "seed"):
        if row[key] != getattr(ref, key):
            problems.append(f"{key} {row[key]} != requested {getattr(ref, key)}")
    if problems:
        return problems, False
    band = ref.near_boundary
    for key in ("accepted", "separable", "classical"):
        got, want = row[key], getattr(ref, key)
        if abs(got - want) > band:
            problems.append(f"{key} {got} vs oracle {want} +-{band}")
    for key in ("prob_sep", "prob_classical"):
        got, want = row[key], getattr(ref, key)
        if not _close(got, want):
            problems.append(f"{key} {got:.12g} vs oracle {want:.12g}")
    failures = row.get("solver_failures", 0)
    explained = bool(
        problems
        and failures > 0
        and abs(row["accepted"] + failures - ref.accepted) <= band
    )
    if explained:
        problems.append(f"{failures} solver failures: {NEWTON_FAULT}")
    return problems, explained


def check_bures(result, physical: Reference) -> list[str]:
    """Properties a volume-element census must have.

    The discard fraction and the Bures probabilities are not asserted:
    they rest on the float64 kernel floor, which is expected to change.
    """
    problems = []
    band = physical.near_boundary
    if abs(result.accepted - physical.accepted) > band:
        problems.append(
            f"accepted {result.accepted} vs oracle physical {physical.accepted} +-{band}"
        )
    if result.numerical_faults:
        problems.append(f"{result.numerical_faults} numerical faults")
    if result.ordering_faults:
        problems.append(
            f"{result.ordering_faults} grids break Bures <= Kubo-Mori <= maximal"
        )
    if not (0 <= result.classical <= result.separable
            <= result.accepted - result.discarded_grids):
        problems.append(
            f"counts out of order: classical {result.classical}, separable "
            f"{result.separable}, accepted {result.accepted}, discarded "
            f"{result.discarded_grids}"
        )
    for name in result.measure_names():
        for p in (result.prob_sep(name), result.prob_classical(name)):
            if not 0.0 <= p <= 1.0:
                problems.append(f"{name} probability {p!r} outside [0, 1]")
    return problems
