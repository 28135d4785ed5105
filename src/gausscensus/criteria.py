"""Separability and classicality verdicts for two-mode Gaussian states.

Two independent separability tests are provided: the variance test on
the reduced sum/difference quadrature pair, and the phase-space mirror
reflection (partial transpose) test, which serves as the exact oracle
for two-mode Gaussian states.  A positive-P test decides classicality.

Every test takes a stack of matrices along a leading axis, shape
(S, 4, 4), and gives one array entry per matrix (a lane).  A lane whose
form-I or form-II solve failed carries its states.SolverFailure code in
Verdict.failure; nothing raises for it.  An input that is not such a
stack raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .states import (
    OMEGA,
    StandardFormII,
    _stack,
    is_physical,
    to_standard_form_one,
    to_standard_form_two,
)
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "MIRROR",
    "VarianceReport",
    "Verdict",
    "OracleDisagreementError",
    "total_variance",
    "is_separable_ppt",
    "is_classical",
    "classify",
    "disagrees",
    "format_disagreement",
]

#: Momentum reversal of the second mode, the phase-space mirror.
MIRROR = np.diag([1.0, 1.0, 1.0, -1.0])
MIRROR.setflags(write=False)
# M * _MIRROR_SIGNS is MIRROR @ M @ MIRROR for each matrix of a stack.
_MIRROR_SIGNS = np.outer(np.diag(MIRROR), np.diag(MIRROR))

# Matrices per stacked classify pass.  Results do not depend on it; it
# bounds the memory of a pass.
CLASSIFY_CHUNK = 16384

_EYE4 = np.eye(4)
_EYE4.setflags(write=False)


@dataclass(frozen=True)
class VarianceReport:
    """Total variance of a reduced quadrature pair and its separability
    bound, which is always a0^2 + 1/a0^2."""

    total_variance: float
    separability_bound: float
    a0: float


@dataclass(frozen=True)
class Verdict:
    """Outcome of the full filter chain, one array entry per matrix.

    physical is the exact uncertainty-relation verdict M + i*Omega >= 0;
    separable and classical are False for unphysical matrices.  failure
    holds each lane's states.SolverFailure code: a physical lane whose
    form-I or form-II solve failed is neither separable nor classical
    and has a NaN margin_sep.
    """

    physical: np.ndarray
    separable: np.ndarray
    classical: np.ndarray
    margin_sep: np.ndarray
    margin_ppt: np.ndarray
    failure: np.ndarray


class OracleDisagreementError(RuntimeError):
    """The variance verdict and the mirror oracle disagree off-boundary."""

    def __init__(self, matrix: np.ndarray, margin_sep: float, margin_ppt: float):
        super().__init__(
            f"verdict disagreement: variance margin {margin_sep:.6e}, "
            f"mirror margin {margin_ppt:.6e}"
        )
        self.matrix = np.array(matrix)
        self.margin_sep = margin_sep
        self.margin_ppt = margin_ppt


def total_variance(f2: StandardFormII) -> VarianceReport:
    """Evaluate the scaled sum/difference variance and its bound.

    total_variance = (1/2) [a0^2 (n1 + n2) + (m1 + m2) / a0^2]
                     - |c1| - |c2|,
    normalized so the separability threshold is exactly
    a0^2 + 1/a0^2, lane by lane.
    """
    a0sq = f2.a0 * f2.a0
    tv = (
        0.5 * (a0sq * (f2.n1 + f2.n2) + (f2.m1 + f2.m2) / a0sq)
        - abs(f2.c1)
        - abs(f2.c2)
    )
    return VarianceReport(tv, a0sq + 1.0 / a0sq, f2.a0)


def is_separable_ppt(M: np.ndarray, tol: Tolerances = DEFAULT) -> tuple[np.ndarray, np.ndarray]:
    """Mirror-reflection oracle.

    Reflects the momentum of mode 2 and checks that the reflected matrix
    still satisfies the uncertainty relation.  Returns the verdicts and
    the minimum eigenvalues of reflected-M + i*Omega as signed margins,
    two (S,) arrays.  This test is necessary and sufficient for two-mode
    Gaussian states.
    """
    M = _stack(M, (4, 4))
    margin = np.linalg.eigvalsh(M * _MIRROR_SIGNS + 1j * OMEGA)[:, 0]
    return margin >= tol.ppt_min_eig, margin


def is_classical(M: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Positive-P test: M - I strictly positive definite."""
    M = _stack(M, (4, 4))
    return np.linalg.eigvalsh(M - _EYE4)[:, 0] > tol.classical_min_eig


def classify(M: np.ndarray, tol: Tolerances = DEFAULT) -> Verdict:
    """Run the full filter chain on a stack of positive definite matrices.

    Chain: the mirror margin and the physicality gate M + i*Omega >= 0
    (states.is_physical), then on the physical lanes the form-I
    reduction, the form-II solve and the separability verdict, then
    the classicality test on the separable lanes.  Unphysical matrices
    leave at the gate without a form-II solve; the mirror margin is
    always computed so the caller can compare the two separability
    tests.  The stack is classified CLASSIFY_CHUNK matrices at a time,
    and solver failures are marked in the verdict's failure field.
    """
    M = _stack(M, (4, 4))
    parts = [
        _classify_stack(M[i:i + CLASSIFY_CHUNK], tol)
        for i in range(0, max(len(M), 1), CLASSIFY_CHUNK)
    ]
    if len(parts) == 1:
        return parts[0]
    return Verdict(*(
        np.concatenate([getattr(p, f.name) for p in parts]) for f in fields(Verdict)
    ))


def _classify_stack(M: np.ndarray, tol: Tolerances) -> Verdict:
    count = len(M)
    _, margin_ppt = is_separable_ppt(M, tol)
    physical = is_physical(M, tol)
    lanes = np.flatnonzero(physical)
    f1 = to_standard_form_one(M[lanes], tol)
    # Physical means det A, det B >= 1 up to the gate tolerance, so n and
    # m can only round below one on the boundary itself.
    f1 = replace(f1, n=np.maximum(f1.n, 1.0), m=np.maximum(f1.m, 1.0))
    f2 = to_standard_form_two(f1, tol)
    report = total_variance(f2)
    failure = np.zeros(count, dtype=np.int8)
    failure[lanes] = f2.failure
    # The variance criterion: separable iff the total variance reaches
    # a0^2 + 1/a0^2, the boundary counted separable.
    margin_sep = np.full(count, math.nan)
    margin_sep[lanes] = report.total_variance - report.separability_bound
    separable = margin_sep >= -tol.variance_slack
    classical = np.zeros(count, dtype=bool)
    classical[separable] = is_classical(M[separable], tol)
    return Verdict(physical, separable, classical, margin_sep, margin_ppt, failure)


def disagrees(verdict: Verdict, tol: Tolerances = DEFAULT) -> np.ndarray:
    """The mask of lanes whose two separability tests conflict outside
    the band.

    Disagreements with either margin inside the boundary band are
    tolerated as tie-breaking noise; anything else indicates a defect
    and should abort a census.  Lanes that are unphysical or failed a
    solve never disagree.
    """
    ppt_ok = verdict.margin_ppt >= tol.ppt_min_eig
    return (
        verdict.physical
        & (verdict.separable != ppt_ok)
        & (abs(verdict.margin_sep) > tol.margin_band)
        & (abs(verdict.margin_ppt) > tol.margin_band)
    )


def format_disagreement(M: np.ndarray, margin_sep: float, margin_ppt: float) -> str:
    """Diagnostic dump: the 4x4 matrix row by row plus both margins,
    everything at 17 significant digits."""
    M = np.asarray(M, dtype=float)
    lines = [" ".join(f"{x:.17g}" for x in row) for row in M]
    lines.append(f"margin_sep {margin_sep:.17g}")
    lines.append(f"margin_ppt {margin_ppt:.17g}")
    return "\n".join(lines) + "\n"
