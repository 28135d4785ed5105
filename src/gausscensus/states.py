"""Two-mode Gaussian covariance matrices and their canonical reductions.

Conventions used throughout the package: quadrature ordering is
(x1, p1, x2, p2), commutators are scaled so the vacuum covariance
matrix is the identity, and a 4x4 real symmetric matrix M represents
a state through its symmetrized second moments.

The tests and reductions take one matrix or a stack of them along a
leading axis.  A stack gives arrays where one matrix gives scalars, and
a stacked solver reports each lane's failure as a SolverFailure code
where the single-sample form raises the matching exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "OMEGA",
    "ComplexRootError",
    "NoConvergenceError",
    "DegenerateError",
    "SolverFailure",
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


class SolverFailure(IntEnum):
    """Why a form-I or form-II solve left a lane without a result.

    Stacked forms carry one code per lane in their `failure` field; the
    single-sample forms raise `error()` instead.  NONE means solved.
    """

    NONE = 0
    COMPLEX_ROOT = 1
    BELOW_VACUUM = 2
    DEGENERATE = 3
    START_OUTSIDE = 4
    SINGULAR_JACOBIAN = 5
    LINE_SEARCH_STALLED = 6
    BUDGET_EXHAUSTED = 7
    INADMISSIBLE_ROOT = 8

    def error(self) -> Exception:
        """The exception the single-sample form raises for this cause."""
        kind, message = _FAILURE_ERRORS[self]
        return kind(message)


_FAILURE_ERRORS = {
    SolverFailure.COMPLEX_ROOT: (
        ComplexRootError, "cross-term quadratic discriminant below zero"),
    SolverFailure.BELOW_VACUUM: (ValueError, "form II requires n >= 1 and m >= 1"),
    SolverFailure.DEGENERATE: (
        DegenerateError, "unit local invariants with nonzero cross term"),
    SolverFailure.START_OUTSIDE: (
        NoConvergenceError, "start point outside the solver domain"),
    SolverFailure.SINGULAR_JACOBIAN: (NoConvergenceError, "singular Jacobian"),
    SolverFailure.LINE_SEARCH_STALLED: (NoConvergenceError, "line search stalled"),
    SolverFailure.BUDGET_EXHAUSTED: (NoConvergenceError, "iteration budget exhausted"),
    SolverFailure.INADMISSIBLE_ROOT: (
        NoConvergenceError, "root outside the admissible branch"),
}


@dataclass(frozen=True)
class StandardFormI:
    """Local-symplectic invariants (n, m, c, cp) of a two-mode matrix.

    n and m are the per-mode variances after reduction, c and cp the
    x-x and p-p cross terms, with c >= 0 and |c| >= |cp|.  On a stack,
    failure holds each lane's SolverFailure code and a failed lane's
    numbers are NaN.
    """

    n: float
    m: float
    c: float
    cp: float
    failure: int = 0


@dataclass(frozen=True)
class StandardFormII:
    """Squeeze-balanced reduction feeding the variance criterion.

    r1 and r2 are the local squeeze factors that produced the form,
    a0 the scale entering the sum/difference quadrature pair.  On a
    stack, failure holds each lane's SolverFailure code and a failed
    lane's numbers are NaN.
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
    failure: int = 0


@dataclass(frozen=True)
class SqueezedThermalParams:
    """One-mode squeezed thermal state parameters (beta, r, theta)."""

    beta: float
    r: float
    theta: float = 0.0


def mode_blocks(M: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split a 4x4 covariance matrix into mode blocks A, B and cross block C."""
    M = np.asarray(M, dtype=float)
    return M[..., :2, :2], M[..., 2:, 2:], M[..., :2, 2:]


def _det2(X: np.ndarray) -> np.ndarray:
    return X[..., 0, 0] * X[..., 1, 1] - X[..., 0, 1] * X[..., 1, 0]


def _at_least(x: np.ndarray, lo: float) -> np.ndarray:
    # Python's max(x, lo) per element: x is kept when it equals lo (so
    # is the sign of a zero) and when it is NaN, unlike np.maximum.
    return np.where(x < lo, lo, x)


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    # fn on each float of x.  numpy's exp and power differ from libm's
    # in the last bit on a few percent of inputs, and the single-sample
    # chain has always used libm's through math.exp and **.
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def is_positive_definite(M: np.ndarray) -> bool:
    """True when every eigenvalue of the symmetric matrix is positive."""
    w = np.linalg.eigvalsh(np.asarray(M, dtype=float))
    return bool(w[0] > 0.0)


def is_physical(M: np.ndarray, tol: Tolerances = DEFAULT) -> bool | np.ndarray:
    """Uncertainty-principle test: M + i*Omega positive semidefinite."""
    M = np.asarray(M, dtype=float)
    ok = np.linalg.eigvalsh(M + 1j * OMEGA)[..., 0] >= tol.physical_min_eig
    return bool(ok) if M.ndim == 2 else ok


def to_standard_form_one(M: np.ndarray, tol: Tolerances = DEFAULT) -> StandardFormI:
    """Reduce a positive definite matrix to its form-I invariants.

    The four numbers are obtained from the local-symplectic invariants
    det A, det B, det C and det M alone: n = sqrt(det A), m = sqrt(det B),
    and c^2, cp^2 are the roots of t^2 - S t + (det C)^2 with
    S = (n^2 m^2 + (det C)^2 - det M) / (n m).  Signs follow the
    convention c >= 0, |c| >= |cp|, sign(c * cp) = sign(det C).

    Raises ComplexRootError when the quadratic has no real roots beyond
    numerical tolerance, which signals an inconsistent input; a stack
    marks such lanes SolverFailure.COMPLEX_ROOT instead.
    """
    M = np.asarray(M, dtype=float)
    A, B, C = mode_blocks(M)
    if M.ndim == 2 and not (_det2(A) > 0.0 and _det2(B) > 0.0):
        raise ValueError("form I requires positive definite mode blocks")
    det_c = _det2(C)
    det_m = np.linalg.det(M)
    n = np.sqrt(_det2(A))
    m = np.sqrt(_det2(B))
    S = (n * n * m * m + det_c * det_c - det_m) / (n * m)
    disc = S * S - 4.0 * det_c * det_c
    scale = np.maximum(np.maximum(S * S, 4.0 * det_c * det_c), 1.0)
    complex_root = disc < -tol.complex_root_rel * scale
    if M.ndim == 2 and complex_root:
        raise ComplexRootError(
            f"cross-term quadratic discriminant {disc:.3e} below zero"
        )
    root = np.sqrt(_at_least(disc, 0.0))
    c = np.sqrt(_at_least(0.5 * (S + root), 0.0))
    cp = np.sqrt(_at_least(0.5 * (S - root), 0.0))
    cp = np.where(det_c < 0.0, -cp, cp)
    if M.ndim == 2:
        return StandardFormI(float(n), float(m), float(c), float(cp))
    n, m, c, cp = (np.where(complex_root, math.nan, x) for x in (n, m, c, cp))
    failure = np.where(complex_root, SolverFailure.COMPLEX_ROOT, SolverFailure.NONE)
    return StandardFormI(n, m, c, cp, failure.astype(np.int8))


#: Step lengths of the line search, 1, 1/2, ..., 2^-39.
_STEPS = np.ldexp(1.0, -np.arange(40))

#: Trial points a line-search pass evaluates at most: the steps still
#: open are tried a group at a time, as many as fit for every lane that
#: has not moved yet.  Each lane takes the first step that lowers its
#: merit, the step a one-at-a-time search takes, so the size changes
#: nothing but the time: most lanes take the full step, and a lane that
#: stalls has to try all forty.
_TRIAL_POINTS = 2048

# Rows al, be, ga, de, s of a stacked solver state.
_FORM = slice(6, 11)


def _form_two_states(u, v, n, m, ac, acp):
    # Residuals and Jacobian of the balancing system at (log r1, log r2)
    # = (u, v) for every lane, rows F1 F2 J11 J12 J21 J22 al be ga de s,
    # and the mask of lanes inside the domain of the square roots.  The
    # rows of a lane outside it are junk, computed from a safe stand-in.
    inside = ~((np.abs(u) > 300.0) | (np.abs(v) > 300.0))
    u = np.where(inside, u, 0.0)
    v = np.where(inside, v, 0.0)
    eu, ev, s = _per_element(math.exp, np.concatenate((u, v, 0.5 * (u + v)))).reshape(3, -1)
    al = eu * n
    be = n / eu
    ga = ev * m
    de = m / ev
    P1 = (al - 1.0) * (ga - 1.0)
    P2 = (be - 1.0) * (de - 1.0)
    inside &= ~((P1 < 0.0) | (P2 < 0.0))
    R1 = np.sqrt(np.where(inside, P1, 0.0))
    R2 = np.sqrt(np.where(inside, P2, 0.0))
    F1 = (al - 1.0) * (de - 1.0) - (be - 1.0) * (ga - 1.0)
    F2 = ac * s - acp / s - R1 + R2
    h = 0.5 * (ac * s + acp / s)
    e1 = np.where(R1 > 5e-13, 2.0 * R1, 1e-12)
    e2 = np.where(R2 > 5e-13, 2.0 * R2, 1e-12)
    J11 = al * (de - 1.0) + be * (ga - 1.0)
    J12 = -de * (al - 1.0) - ga * (be - 1.0)
    J21 = h - al * (ga - 1.0) / e1 - be * (de - 1.0) / e2
    J22 = h - ga * (al - 1.0) / e1 - de * (be - 1.0) / e2
    return inside, np.stack((F1, F2, J11, J12, J21, J22, al, be, ga, de, s))


def _merit(state: np.ndarray) -> np.ndarray:
    # Squares of residuals far outside overflow to inf, as in floats.
    F1, F2 = state[:2]
    with np.errstate(over="ignore"):
        return F1 * F1 + F2 * F2


def _line_search(u, v, du, dv, merit, params):
    # Per lane, the first halved step whose trial point is inside the
    # domain, has finite residuals and lowers the merit.  Returns the
    # mask of lanes that moved and, for those, the new point, state
    # and merit.
    lanes = u.size
    moved = np.zeros(lanes, dtype=bool)
    new_u, new_v, new_merit = np.empty(lanes), np.empty(lanes), np.empty(lanes)
    new_state = np.empty((11, lanes))
    pending = np.arange(lanes)
    lo = 0
    while pending.size and lo < _STEPS.size:
        steps = _STEPS[lo:lo + max(1, _TRIAL_POINTS // pending.size)]
        lo += steps.size
        tu = (u[pending, None] + steps * du[pending, None]).ravel()
        tv = (v[pending, None] + steps * dv[pending, None]).ravel()
        inside, state = _form_two_states(
            tu, tv, *np.repeat(params[:, pending], steps.size, axis=1))
        trial_merit = _merit(state)
        good = (
            inside
            & np.isfinite(state[:2]).all(axis=0)
            & (trial_merit < np.repeat(merit[pending], steps.size))
        ).reshape(-1, steps.size)
        hit = good.any(axis=1)
        pick = np.flatnonzero(hit) * steps.size + good[hit].argmax(axis=1)
        done = pending[hit]
        moved[done] = True
        new_u[done], new_v[done] = tu[pick], tv[pick]
        new_state[:, done] = state[:, pick]
        new_merit[done] = trial_merit[pick]
        pending = pending[~hit]
    return moved, new_u, new_v, new_state, new_merit


def _solve_form_two(n, m, ac, acp, tol):
    # Damped Newton on (log r1, log r2) from (0, 0), one lane per solve:
    # every live lane takes its step of the same iteration together and
    # leaves on convergence or failure.  Returns the failure codes and
    # the rows u v al be ga de s at each lane's root.
    lanes = n.size
    failure = np.zeros(lanes, dtype=np.int8)
    root = np.full((7, lanes), math.nan)
    u, v = np.zeros(lanes), np.zeros(lanes)
    params = np.stack((n, m, ac, acp))
    inside, state = _form_two_states(u, v, *params)
    failure[~inside] = SolverFailure.START_OUTSIDE
    live = np.flatnonzero(inside)
    u, v, state, params = u[live], v[live], state[:, live], params[:, live]
    merit = _merit(state)
    resid = tol.newton_residual
    for _ in range(tol.newton_max_iter):
        if not live.size:
            break
        F1, F2, J11, J12, J21, J22 = state[:6]
        converged = (np.abs(F1) < resid) & (np.abs(F2) < resid)
        root[:2, live[converged]] = u[converged], v[converged]
        root[2:, live[converged]] = state[_FORM, converged]
        with np.errstate(over="ignore", invalid="ignore"):
            det = J11 * J22 - J12 * J21
        singular = ~converged & ((det == 0.0) | ~np.isfinite(det))
        failure[live[singular]] = SolverFailure.SINGULAR_JACOBIAN
        keep = ~(converged | singular)
        live, u, v, merit, det = live[keep], u[keep], v[keep], merit[keep], det[keep]
        state, params = state[:, keep], params[:, keep]
        F1, F2, J11, J12, J21, J22 = state[:6]
        with np.errstate(over="ignore", invalid="ignore"):
            du = -(J22 * F1 - J12 * F2) / det
            dv = -(-J21 * F1 + J11 * F2) / det
        moved, u, v, state, merit = _line_search(u, v, du, dv, merit, params)
        failure[live[~moved]] = SolverFailure.LINE_SEARCH_STALLED
        live, u, v, merit = live[moved], u[moved], v[moved], merit[moved]
        state, params = state[:, moved], params[:, moved]
    failure[live] = SolverFailure.BUDGET_EXHAUSTED
    return failure, root


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
    nonzero cross term.  A stacked form solves every lane it does not
    find failed already, and marks each failure with its cause instead.
    """
    single = np.ndim(f1.n) == 0
    n, m, c, cp = (np.atleast_1d(np.asarray(x, dtype=float)) for x in (f1.n, f1.m, f1.c, f1.cp))
    failure = np.broadcast_to(np.asarray(f1.failure, dtype=np.int8), n.shape).copy()
    todo = failure == SolverFailure.NONE
    below = todo & ((n < 1.0) | (m < 1.0))
    failure[below] = SolverFailure.BELOW_VACUUM
    todo &= ~below
    degenerate = (
        todo
        & (np.abs(n - 1.0) <= tol.degenerate_abs)
        & (np.abs(m - 1.0) <= tol.degenerate_abs)
        & (np.abs(c) > tol.degenerate_abs)
    )
    failure[degenerate] = SolverFailure.DEGENERATE
    lanes = np.flatnonzero(todo & ~degenerate)
    code, root = _solve_form_two(n[lanes], m[lanes], np.abs(c[lanes]), np.abs(cp[lanes]), tol)
    failure[lanes] = code
    solved = lanes[code == SolverFailure.NONE]
    form = np.full((9, n.size), math.nan)
    failure[solved], form[:, solved] = _assemble_form_two(
        root[:, code == SolverFailure.NONE], c[solved], cp[solved], tol)
    form[:, failure != SolverFailure.NONE] = math.nan
    if single:
        if failure[0]:
            raise SolverFailure(int(failure[0])).error()
        return StandardFormII(*(float(x) for x in form[:, 0]))
    return StandardFormII(*form, failure=failure)


def _assemble_form_two(root, c, cp, tol):
    # Form II at each lane's root; lanes whose a0 has no real value fail.
    u, v, al, be, ga, de, s = root
    n1, n2, m1, m2 = al, be, ga, de
    balanced = ~(
        (np.abs(n1 - 1.0) <= tol.degenerate_abs)
        | (np.abs(m1 - 1.0) <= tol.degenerate_abs)
    )
    radicand = (m1[balanced] - 1.0) / (n1[balanced] - 1.0)
    admissible = ~(radicand <= 0.0)
    balanced = np.flatnonzero(balanced)
    failure = np.zeros(n1.size, dtype=np.int8)
    failure[balanced[~admissible]] = SolverFailure.INADMISSIBLE_ROOT
    radicand = radicand[admissible]
    a0 = np.ones(n1.size)
    a0[balanced[admissible]] = _per_element(lambda x: x**0.25, radicand)
    r1 = _per_element(math.exp, u)
    r2 = _per_element(math.exp, v)
    return failure, np.stack((n1, n2, m1, m2, c * s, cp / s, a0, r1, r2))


def symplectic_eigenvalues(M: np.ndarray) -> tuple[float, float]:
    """Return nu1 >= nu2 > 0 with spec(i Omega M) = {+-nu1, +-nu2}.

    Uses the invariant form: nu^2 are the roots of
    x^2 - (det A + det B + 2 det C) x + det M.  A stack of matrices
    gives two arrays.
    """
    M = np.asarray(M, dtype=float)
    A, B, C = mode_blocks(M)
    delta = _det2(A) + _det2(B) + 2.0 * _det2(C)
    det_m = np.linalg.det(M)
    root = np.sqrt(_at_least(delta * delta - 4.0 * det_m, 0.0))
    nu1 = np.sqrt(_at_least(0.5 * (delta + root), 0.0))
    nu2 = np.sqrt(_at_least(0.5 * (delta - root), 0.0))
    if M.ndim == 2:
        return float(nu1), float(nu2)
    return nu1, nu2


def _entropy_term(nu: np.ndarray) -> np.ndarray:
    # Imported here: scipy.special costs a third of a second to import,
    # and no census path needs it.
    from scipy.special import xlogy

    up = 0.5 * (nu + 1.0)
    dn = 0.5 * _at_least(nu - 1.0, 0.0)
    return xlogy(up, up) - xlogy(dn, dn)


def entropy(M: np.ndarray) -> float | np.ndarray:
    """Von Neumann entropy in nats from the symplectic spectrum.

    Accepts a 4x4 two-mode matrix or a 2x2 one-mode block, whose single
    symplectic eigenvalue is sqrt(det), or a stack of either.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[-2:] == (2, 2):
        nus: tuple = (np.sqrt(_at_least(_det2(M), 0.0)),)
    else:
        nus = symplectic_eigenvalues(M)
    total = sum(_entropy_term(_at_least(np.asarray(nu), 1.0)) for nu in nus)
    return float(total) if M.ndim == 2 else total


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
