"""Gaussian fidelities, the Bures metric, and its marginal densities.

One-mode fidelity is closed-form in the covariance-matrix determinants.
The squeezed-thermal family (beta, r, theta) gets its Bures metric by
central second differences of the squared Bures distance, and the
closed-form marginals f(r) and g(beta) come with a quadrature probe
that exhibits their unnormalizability.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .states import SqueezedThermalParams, squeezed_thermal_covariance
from .tolerances import DEFAULT, Tolerances

__all__ = [
    "DomainError",
    "ShapeError",
    "StepError",
    "fidelity_one_mode",
    "bures_distance_sq",
    "metric_by_finite_difference",
    "marginal_f",
    "marginal_g",
    "improperness_probe",
]


class DomainError(ValueError):
    """Fidelity radicand negative beyond tolerance (unphysical input)."""


class ShapeError(ValueError):
    """Input matrix is not a 2x2 covariance matrix."""


class StepError(RuntimeError):
    """Finite-difference steps h and h/2 disagree beyond tolerance, or
    their squares and products leave the float64 range."""


def _cov(A) -> np.ndarray:
    A = np.asarray(A, dtype=float)
    if A.shape != (2, 2):
        raise ShapeError(f"expected a 2x2 covariance matrix, got {A.shape}")
    return A


def fidelity_one_mode(A1, A2) -> float:
    """Fidelity of two one-mode Gaussian states from their covariances.

        F = 2 / (sqrt(det(A1 + A2) + P) - sqrt(P)),
        P = (det A1 - 1)(det A2 - 1)

    Identical states give F = 1; the identity against 3*identity gives
    exactly 1/2.
    """
    A1 = _cov(A1)
    A2 = _cov(A2)
    d1 = float(np.linalg.det(A1))
    d2 = float(np.linalg.det(A2))
    P = (d1 - 1.0) * (d2 - 1.0)
    rad = float(np.linalg.det(A1 + A2)) + P
    scale = max(1.0, abs(rad), abs(P))
    if rad < -1e-10 * scale or P < -1e-10 * scale:
        raise DomainError(f"negative fidelity radicand ({rad:.3e}, P={P:.3e})")
    return 2.0 / (math.sqrt(max(rad, 0.0)) - math.sqrt(max(P, 0.0)))


def bures_distance_sq(F: float) -> float:
    """Squared Bures distance 2(1 - F) for a fidelity value F."""
    return 2.0 * (1.0 - F)


def _distance_sq(p: np.ndarray, q: np.ndarray) -> float:
    A1 = squeezed_thermal_covariance(SqueezedThermalParams(*p))
    A2 = squeezed_thermal_covariance(SqueezedThermalParams(*q))
    return bures_distance_sq(fidelity_one_mode(A1, A2))


def _metric_at_step(p: np.ndarray, steps: np.ndarray) -> np.ndarray:
    # q(d) = [D^2(p, p+d) + D^2(p, p-d)] / 2 is even in d, so
    # q(d) = sum_ab g_ab d_a d_b + O(|d|^4).
    def q(d: np.ndarray) -> float:
        return 0.5 * (_distance_sq(p, p + d) + _distance_sq(p, p - d))

    with np.errstate(over="ignore", under="ignore"):
        products = np.multiply.outer(steps, steps)
    if not ((products > 0.0) & np.isfinite(products)).all():
        raise StepError(f"finite-difference step products overflow or underflow at "
                        f"steps {steps.tolist()}")
    n = len(p)
    g = np.zeros((n, n))
    axis = [q(steps[a] * np.eye(n)[a]) for a in range(n)]
    for a in range(n):
        g[a, a] = axis[a] / products[a, a]
    for a in range(n):
        for b in range(a + 1, n):
            d = steps[a] * np.eye(n)[a] + steps[b] * np.eye(n)[b]
            g[a, b] = g[b, a] = (q(d) - axis[a] - axis[b]) / (2.0 * products[a, b])
    return g


def metric_by_finite_difference(
    param_point: SqueezedThermalParams,
    h: float | None = None,
    tol: Tolerances = DEFAULT,
) -> np.ndarray:
    """Bures metric of the squeezed-thermal family at a parameter point.

    Returns the 3x3 metric in (beta, r, theta) coordinates, assembled
    from central second differences of the squared Bures distance with
    per-axis steps h * max(1, |coordinate|).  The restriction to the
    (beta, r) plane sits in the leading 2x2 block; the theta row is kept
    because the volume element of the family needs it (the in-plane
    block alone carries no r dependence).

    h must be positive and finite.  Estimates at steps h and h/2 must
    agree; otherwise StepError, which is also raised when an estimate is
    not finite or when a step square or step product overflows or
    underflows to zero.
    """
    if h is None:
        h = tol.fd_step_rel
    if not (h > 0.0 and math.isfinite(h)):
        raise ValueError(f"finite-difference step h must be positive and finite, got {h!r}")
    p = np.array([param_point.beta, param_point.r, param_point.theta], dtype=float)
    steps = h * np.maximum(1.0, np.abs(p))
    g_full = _metric_at_step(p, steps)
    g_half = _metric_at_step(p, 0.5 * steps)
    scale = max(float(np.abs(g_half).max()), 1e-300)
    if not float(np.abs(g_full - g_half).max()) <= tol.fd_richardson_rel * scale:
        raise StepError(
            f"metric estimates at h={h:.1e} and h/2 disagree beyond "
            f"{tol.fd_richardson_rel:.0e} relative"
        )
    # Richardson extrapolation removes the leading O(h^2) truncation term.
    return (4.0 * g_half - g_full) / 3.0


def marginal_f(r: float) -> float:
    """Squeezing marginal sinh(2r) of the Bures volume element."""
    return math.sinh(2.0 * r)


def marginal_g(beta: float) -> float:
    """Temperature marginal cosh(b/4) coth(b/4) sech(b/2) / 8."""
    quarter = 0.25 * beta
    return math.cosh(quarter) ** 2 / (8.0 * math.sinh(quarter) * math.cosh(0.5 * beta))


def improperness_probe(marginal: Callable[[float], float], R: float) -> float:
    """Adaptive quadrature of a marginal density, such as marginal_f or
    marginal_g, over [1e-6, R].

    The integrals grow without bound in R, which is the numerical
    statement that the marginals are unnormalizable.
    """
    # Imported here: scipy.integrate is slow to import and only this
    # probe uses it.
    from scipy.integrate import quad

    if R <= 0.0:
        raise ValueError("upper limit must be positive")
    value, _ = quad(marginal, 1e-6, R, epsabs=0.0, epsrel=1e-10, limit=200)
    return float(value)
