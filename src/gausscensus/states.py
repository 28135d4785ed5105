"""Two-mode Gaussian covariance matrices and their canonical reductions.

Conventions used throughout the package: quadrature ordering is
(x1, p1, x2, p2), commutators are scaled so the vacuum covariance
matrix is the identity, and a 4x4 real symmetric matrix M represents
a state through its symmetrized second moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "OMEGA",
    "ComplexRootError",
    "NoConvergenceError",
    "DegenerateError",
    "StandardFormI",
    "StandardFormII",
    "SqueezedThermalParams",
    "mode_blocks",
    "is_positive_definite",
    "is_physical",
    "to_standard_form_one",
    "to_standard_form_two",
    "symplectic_eigenvalues",
    "entropy",
    "purity",
    "squeezed_thermal_covariance",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Symplectic form for two modes, block diagonal with one J per mode.
OMEGA = np.zeros((4, 4))
OMEGA[:2, :2] = _J
OMEGA[2:, 2:] = _J
OMEGA.setflags(write=False)


class ComplexRootError(ValueError):
    """The cross-term quadratic of the form-I split has no real roots."""


class NoConvergenceError(RuntimeError):
    """The form-II solver failed to reach an admissible root."""


class DegenerateError(ValueError):
    """Both local invariants are unity while a cross term is nonzero."""


@dataclass(frozen=True)
class StandardFormI:
    """Local-symplectic invariants (n, m, c, cp) of a two-mode matrix.

    n and m are the per-mode variances after reduction, c and cp the
    x-x and p-p cross terms, with c >= 0 and |c| >= |cp|.
    """

    n: float
    m: float
    c: float
    cp: float


@dataclass(frozen=True)
class StandardFormII:
    """Squeeze-balanced reduction feeding the variance criterion.

    r1 and r2 are the local squeeze factors that produced the form,
    a0 the scale entering the sum/difference quadrature pair.
    """

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
class SqueezedThermalParams:
    """One-mode squeezed thermal state parameters (beta, r, theta)."""

    beta: float
    r: float
    theta: float = 0.0


def mode_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a 4x4 covariance matrix into mode blocks A, B and cross block C."""
    M = np.asarray(M, dtype=float)
    return M[:2, :2], M[2:, 2:], M[:2, 2:]


def _det2(X: np.ndarray) -> float:
    return float(X[0, 0] * X[1, 1] - X[0, 1] * X[1, 0])


def is_positive_definite(M: np.ndarray) -> bool:
    """True when every eigenvalue of the symmetric matrix is positive."""
    w = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    return bool(w[0] > 0.0)


def is_physical(M: np.ndarray, tol: Tolerances = DEFAULT) -> bool:
    """Uncertainty-principle test: M + i*Omega positive semidefinite."""
    M = np.asarray(M, dtype=float)
    w = np.linalg.eigvalsh(M + 1j * OMEGA)
    return bool(w[0] >= tol.physical_min_eig)


def to_standard_form_one(M: np.ndarray, tol: Tolerances = DEFAULT) -> StandardFormI:
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
    return StandardFormI(n, m, c, cp)


def _form_two_state(u: float, v: float, n: float, m: float, ac: float, acp: float):
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


def to_standard_form_two(f1: StandardFormI, tol: Tolerances = DEFAULT) -> StandardFormII:
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
    state = _form_two_state(u, v, n, m, ac, acp)
    if state is None:
        raise NoConvergenceError("start point outside the solver domain")
    merit = state[0] * state[0] + state[1] * state[1]
    resid = tol.newton_residual
    for _ in range(tol.newton_max_iter):
        F1, F2, J11, J12, J21, J22, al, be, ga, de, s = state
        if abs(F1) < resid and abs(F2) < resid:
            return _assemble_form_two(al, be, ga, de, s, c, cp, u, v, tol)
        det = J11 * J22 - J12 * J21
        if det == 0.0 or not math.isfinite(det):
            raise NoConvergenceError("singular Jacobian")
        du = -(J22 * F1 - J12 * F2) / det
        dv = -(-J21 * F1 + J11 * F2) / det
        step = 1.0
        moved = False
        for _ in range(40):
            trial = _form_two_state(u + step * du, v + step * dv, n, m, ac, acp)
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


def _assemble_form_two(
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
) -> StandardFormII:
    n1, n2, m1, m2 = al, be, ga, de
    if abs(n1 - 1.0) <= tol.degenerate_abs or abs(m1 - 1.0) <= tol.degenerate_abs:
        a0 = 1.0
    else:
        radicand = (m1 - 1.0) / (n1 - 1.0)
        if radicand <= 0.0:
            raise NoConvergenceError("root outside the admissible branch")
        a0 = radicand**0.25
    return StandardFormII(
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


def symplectic_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Return nu1 >= nu2 > 0 with spec(i Omega M) = {+-nu1, +-nu2}.

    Uses the invariant form: nu^2 are the roots of
    x^2 - (det A + det B + 2 det C) x + det M.
    """
    M = np.asarray(M, dtype=float)
    A, B, C = mode_blocks(M)
    delta = _det2(A) + _det2(B) + 2.0 * _det2(C)
    det_m = float(np.linalg.det(M))
    disc = max(delta * delta - 4.0 * det_m, 0.0)
    root = math.sqrt(disc)
    nu1 = math.sqrt(max(0.5 * (delta + root), 0.0))
    nu2 = math.sqrt(max(0.5 * (delta - root), 0.0))
    return nu1, nu2


def _entropy_term(nu: float) -> float:
    # Imported here: scipy.special costs a third of a second to import,
    # and no census path needs it.
    from scipy.special import xlogy

    up = 0.5 * (nu + 1.0)
    dn = 0.5 * max(nu - 1.0, 0.0)
    return float(xlogy(up, up) - xlogy(dn, dn))


def entropy(M: np.ndarray) -> float:
    """Von Neumann entropy in nats from the symplectic spectrum.

    Accepts a 4x4 two-mode matrix or a 2x2 one-mode block, whose single
    symplectic eigenvalue is sqrt(det).
    """
    M = np.asarray(M, dtype=float)
    if M.shape == (2, 2):
        nus: tuple[float, ...] = (math.sqrt(max(_det2(M), 0.0)),)
    else:
        nus = symplectic_eigenvalues(M)
    return sum(_entropy_term(max(nu, 1.0)) for nu in nus)


def purity(M: np.ndarray) -> float:
    """Tr(rho^2) of the Gaussian state, equal to det(M)^(-1/2)."""
    det_m = float(np.linalg.det(np.asarray(M, dtype=float)))
    return det_m**-0.5


def squeezed_thermal_covariance(p: SqueezedThermalParams) -> np.ndarray:
    """2x2 covariance matrix of a one-mode squeezed thermal state.

    A = coth(beta/4) R(theta) diag(e^{2r}, e^{-2r}) R(theta)^T, so that
    r = 0 gives an isotropic thermal state and beta -> infinity the
    vacuum identity.
    """
    if p.beta <= 0.0:
        raise ValueError("beta must be positive")
    if p.r < 0.0:
        raise ValueError("squeeze magnitude must be nonnegative")
    scale = 1.0 / math.tanh(0.25 * p.beta)
    cs = math.cos(p.theta)
    sn = math.sin(p.theta)
    R = np.array([[cs, -sn], [sn, cs]])
    D = np.diag([math.exp(2.0 * p.r), math.exp(-2.0 * p.r)])
    return scale * (R @ D @ R.T)
