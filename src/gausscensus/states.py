"""Two-mode Gaussian covariance matrices and their canonical reductions.

Conventions used throughout the package: quadrature ordering is
(x1, p1, x2, p2), commutators are scaled so the vacuum covariance
matrix is the identity, and a 4x4 real symmetric matrix M represents
a state through its symmetrized second moments.

The tests and reductions take a stack of matrices along a leading
axis, shape (S, 4, 4), and give one result per matrix (a lane); entropy
also takes a stack of (S, 2, 2) one-mode blocks.  A solver reports a
lane it could not solve by that lane's SolverFailure code and never
raises for it; an input that is not such a stack raises ValueError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .tolerances import DEFAULT, Tolerances

__all__ = [
    "OMEGA",
    "SolverFailure",
    "StandardFormI",
    "StandardFormII",
    "SqueezedThermalParams",
    "is_physical",
    "to_standard_form_one",
    "to_standard_form_two",
    "symplectic_eigenvalues",
    "entropy",
    "squeezed_thermal_covariance",
]

_J = np.array([[0.0, 1.0], [-1.0, 0.0]])

#: Symplectic form for two modes, block diagonal with one J per mode.
OMEGA = np.zeros((4, 4))
OMEGA[:2, :2] = _J
OMEGA[2:, 2:] = _J
OMEGA.setflags(write=False)


class SolverFailure(IntEnum):
    """Why a form-I or form-II solve left a lane without a result.

    The forms carry one code per lane in their `failure` field.  NONE
    means solved.
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


@dataclass(frozen=True)
class StandardFormI:
    """Local-symplectic invariants (n, m, c, cp) of a two-mode matrix.

    n and m are the per-mode variances after reduction, c and cp the
    x-x and p-p cross terms, with c >= 0 and |c| >= |cp|, one array
    entry per lane.  failure holds each lane's SolverFailure code (0,
    the default, for every lane) and a failed lane's numbers are NaN.
    """

    n: np.ndarray
    m: np.ndarray
    c: np.ndarray
    cp: np.ndarray
    failure: np.ndarray | int = 0


@dataclass(frozen=True)
class StandardFormII:
    """Squeeze-balanced reduction feeding the variance criterion.

    r1 and r2 are the local squeeze factors that produced the form,
    a0 the scale entering the sum/difference quadrature pair, one array
    entry per lane.  failure holds each lane's SolverFailure code and a
    failed lane's numbers are NaN.
    """

    n1: np.ndarray
    n2: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    a0: np.ndarray
    r1: np.ndarray
    r2: np.ndarray
    failure: np.ndarray | int = 0


@dataclass(frozen=True)
class SqueezedThermalParams:
    """One-mode squeezed thermal state parameters (beta, r, theta)."""

    beta: float
    r: float
    theta: float = 0.0


def _stack(x, *shapes: tuple) -> np.ndarray:
    # x as a float array of entries stacked along a leading axis, each
    # entry of one of the given shapes; anything else is refused here
    # rather than broadcast into results of the wrong shape.
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[1:] not in shapes:
        want = " or ".join("(S" + "".join(f", {d}" for d in shape) + ")" for shape in shapes)
        raise ValueError(f"expected a stack of shape {want}, got shape {x.shape}")
    return x


def _det2(X: np.ndarray) -> np.ndarray:
    return X[..., 0, 0] * X[..., 1, 1] - X[..., 0, 1] * X[..., 1, 0]


def _at_least(x: np.ndarray, lo: float) -> np.ndarray:
    # Python's max(x, lo) per element: x is kept when it equals lo (so
    # is the sign of a zero) and when it is NaN, unlike np.maximum.
    return np.where(x < lo, lo, x)


def _per_element(fn, x: np.ndarray) -> np.ndarray:
    # fn on each float of x.  numpy's exp and power differ from libm's
    # in the last bit on a few percent of inputs, and the one-matrix
    # chain the census reproduces bit for bit used libm's through
    # math.exp and **.
    return np.fromiter(map(fn, x.tolist()), float, x.size)


def _invariants(M: np.ndarray, closed: bool = True) -> tuple:
    # det A, det B and det C of each lane's blocks, det M and the leading
    # 3x3 minor D3, all read from the lower triangle, the one eigvalsh
    # reads.  With closed, det M and D3 come from the Laplace expansion
    # over the 2x2 minors of rows 0-1 (s, columns named) and rows 2-3
    # (t); without, det M is LAPACK's and D3 is None.
    m00, m10, m11 = M[:, 0, 0], M[:, 1, 0], M[:, 1, 1]
    m20, m21, m22 = M[:, 2, 0], M[:, 2, 1], M[:, 2, 2]
    m30, m31, m32, m33 = M[:, 3, 0], M[:, 3, 1], M[:, 3, 2], M[:, 3, 3]
    det_a = m00 * m11 - m10 * m10
    det_b = m22 * m33 - m32 * m32
    det_c = m20 * m31 - m30 * m21
    if not closed:
        return det_a, det_b, det_c, np.linalg.det(M), None
    s02 = m00 * m21 - m20 * m10
    s03 = m00 * m31 - m30 * m10
    s12 = m10 * m21 - m20 * m11
    s13 = m10 * m31 - m30 * m11
    t02 = m20 * m32 - m22 * m30
    t03 = m20 * m33 - m32 * m30
    t12 = m21 * m32 - m22 * m31
    t13 = m21 * m33 - m32 * m31
    # The minor of rows 2-3 and columns 0-1 is det C as well.
    det_m = (det_a * det_b - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02
             + det_c * det_c)
    d3 = m20 * s12 - m21 * s02 + m22 * det_a
    return det_a, det_b, det_c, det_m, d3


# Closed-form eigenvalue tests.  A test "min eig H >= t" (or "> t") on a
# Hermitian 4x4 H, here M + i*Omega, its mirror image or M - I, is
# decided from H's leading principal minors H1..H4 where they settle it,
# and by eigvalsh on the other lanes.  Let u = 2**-53, g_j = j*u/(1 - j*u),
# s = 1 + max|M_ij| over a lane's lower triangle (the one eigvalsh reads)
# and N = 5s.  The closed forms below multiply entries of M or M - I
# and the constant 1, all at most s in size, and ||H||_2 <= ||M||_2 + 1
# <= 4 max|M_ij| + 1 <= N.
# - eigvalsh returns the eigenvalues of H + E with ||E||_2 <= p(n) u ||H||_2
#   (LAPACK Users' Guide, 3rd ed., sec. 4.7), so by Weyl its min
#   eigenvalue is within d = 256 u N of the exact one: p(4) = 256 is
#   well above the n**2 growth of Householder tridiagonalization and QR.
# - H1 is an entry.  H2 sums 3 monomials of size at most s**2 through 3
#   roundings, H3 7 of size s**3 through 6 and H4 33 of size s**4 through
#   10, so Hj errs by at most e_j = tau_j s**j, tau = (0, 1e-14, 1e-13,
#   1e-12): 10, 21 and 27 times g_3 3, g_6 7 and g_10 33.
# - Where H1..H4 > 0, H is positive definite and its min eigenvalue is
#   H4 / (l2 l3 l4) >= H4 / N**3.  Where Hj < 0, the leading j x j block
#   has an eigenvalue at most -|Hj| / N**(j - 1), and by Cauchy
#   interlacing H's min eigenvalue is at most that.
# So eigvalsh's min eigenvalue surely passes t where Hj > e_j for j < 4
# and H4 > e_4 + max(t + d, 0) N**3, and surely fails t where some
# Hj < -e_j - max(d - t, 0) N**(j - 1).  For s above _CLOSED_SCALE a
# product could overflow, so the lane takes eigvalsh; no lower bound is
# needed, as s >= 1 makes e_j far larger than any underflow.  Every
# bound is a lane's own, so a verdict does not depend on its stack.
_MINOR_BAND = (0.0, 1e-14, 1e-13, 1e-12)
_EIG_BACKWARD = 2.0**-45
_CLOSED_SCALE = 1e60

# Flat positions of the lower triangle of a 4x4 matrix.
_LOWER = (0, 4, 5, 8, 9, 10, 12, 13, 14, 15)


def _closed_scale(M: np.ndarray) -> np.ndarray:
    # s of the comment above for each lane; NaN for a lane with a NaN.
    flat = M.reshape(len(M), 16)
    big = np.abs(flat[:, 0])
    for j in _LOWER[1:]:
        np.maximum(big, np.abs(flat[:, j]), out=big)
    return 1.0 + big


def _min_eig_bounds(minors: tuple, s: np.ndarray, t: float) -> tuple:
    # The lanes whose eigvalsh min eigenvalue surely passes and surely
    # fails the threshold t, from the leading minors H1..H4.  A lane
    # outside the scale window is in neither mask: its minors are junk.
    inside = s <= _CLOSED_SCALE
    s = np.where(inside, s, 1.0)
    n = 5.0 * s
    d = _EIG_BACKWARD * n
    up, down = np.maximum(t + d, 0.0), np.maximum(d - t, 0.0)
    passes, fails = inside.copy(), np.zeros_like(inside)
    s_j, n_j = np.ones_like(s), np.ones_like(s)  # s**j and N**(j - 1)
    for j, (h, tau) in enumerate(zip(minors, _MINOR_BAND), 1):
        s_j *= s
        e = tau * s_j
        passes &= h > (e + up * n_j if j == 4 else e)
        fails |= h < -(e + down * n_j)
        n_j *= n
    return passes, fails & inside


def _uncertainty_bounds(M: np.ndarray, mirror: bool, t: float) -> tuple:
    # _min_eig_bounds for M + i*Omega, or for the mirror image of M plus
    # i*Omega, which differs only in the sign of det C:
    # det(M + i*Omega) = det M - (det A + det B + 2 det C) + 1
    #                  = (nu1**2 - 1)(nu2**2 - 1),
    # the leading 2x2 minor is det A - 1 and the leading 3x3 minor
    # D3 - M_22, the mirror touching neither.
    # Overflow and inf - inf happen only outside the scale window.
    with np.errstate(over="ignore", invalid="ignore"):
        det_a, det_b, det_c, det_m, d3 = _invariants(M)
        cross = -2.0 * det_c if mirror else 2.0 * det_c
        minors = (M[:, 0, 0], det_a - 1.0, d3 - M[:, 2, 2],
                  det_m - (det_a + det_b + cross) + 1.0)
    return _min_eig_bounds(minors, _closed_scale(M), t)


def is_physical(M: np.ndarray, tol: Tolerances = DEFAULT) -> np.ndarray:
    """Uncertainty-principle test: M + i*Omega positive semidefinite.

    The verdict is min eig(M + i*Omega) >= tol.physical_min_eig with the
    eigenvalue that eigvalsh gives, bit for bit.  It is read from the
    leading minors of M + i*Omega, whose determinant is
    det M - (det A + det B + 2 det C) + 1 = (nu1^2 - 1)(nu2^2 - 1), and
    eigvalsh runs only on the lanes inside their rounding band.
    """
    M = _stack(M, (4, 4))
    physical, fails = _uncertainty_bounds(M, False, tol.physical_min_eig)
    unsure = np.flatnonzero(~(physical | fails))
    if unsure.size:
        physical[unsure] = (np.linalg.eigvalsh(M[unsure] + 1j * OMEGA)[:, 0]
                            >= tol.physical_min_eig)
    return physical


def to_standard_form_one(M: np.ndarray, tol: Tolerances = DEFAULT) -> StandardFormI:
    """Reduce a positive definite matrix to its form-I invariants.

    The four numbers are obtained from the local-symplectic invariants
    det A, det B, det C and det M alone: n = sqrt(det A), m = sqrt(det B),
    and c^2, cp^2 are the roots of t^2 - S t + (det C)^2 with
    S = (n^2 m^2 + (det C)^2 - det M) / (n m).  Signs follow the
    convention c >= 0, |c| >= |cp|, sign(c * cp) = sign(det C).

    A lane whose det A or det B is not positive has no such form and is
    marked SolverFailure.BELOW_VACUUM.  A lane whose quadratic has no
    real roots beyond numerical tolerance, which signals an inconsistent
    input, is marked SolverFailure.COMPLEX_ROOT.  det M is LAPACK's, as
    in every census so far.
    """
    M = _stack(M, (4, 4))
    det_a, det_b, det_c, det_m, _ = _invariants(M, closed=False)
    below = (det_a <= 0.0) | (det_b <= 0.0)
    n = np.sqrt(np.where(below, 1.0, det_a))
    m = np.sqrt(np.where(below, 1.0, det_b))
    S = (n * n * m * m + det_c * det_c - det_m) / (n * m)
    disc = S * S - 4.0 * det_c * det_c
    scale = np.maximum(np.maximum(S * S, 4.0 * det_c * det_c), 1.0)
    complex_root = ~below & (disc < -tol.complex_root_rel * scale)
    root = np.sqrt(_at_least(disc, 0.0))
    c = np.sqrt(_at_least(0.5 * (S + root), 0.0))
    cp = np.sqrt(_at_least(0.5 * (S - root), 0.0))
    cp = np.where(det_c < 0.0, -cp, cp)
    failed = below | complex_root
    n, m, c, cp = (np.where(failed, math.nan, x) for x in (n, m, c, cp))
    failure = np.select([below, complex_root],
                        [SolverFailure.BELOW_VACUUM, SolverFailure.COMPLEX_ROOT],
                        SolverFailure.NONE)
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

    Every lane that f1 does not mark failed already is solved.  A lane
    is marked SolverFailure.DEGENERATE when n = m = 1 with a nonzero
    cross term, BELOW_VACUUM when n or m is below 1, and with the
    solver's cause when no admissible root is reached within the
    iteration budget.  f1's numbers must be (S,) arrays.
    """
    n, m, c, cp = (_stack(x, ()) for x in (f1.n, f1.m, f1.c, f1.cp))
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


def symplectic_eigenvalues(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return nu1 >= nu2 > 0 with spec(i Omega M) = {+-nu1, +-nu2}.

    Uses the invariant form: nu^2 are the roots of
    x^2 - (det A + det B + 2 det C) x + det M, with LAPACK's det M.
    Gives two (S,) arrays.
    """
    M = _stack(M, (4, 4))
    det_a, det_b, det_c, det_m, _ = _invariants(M, closed=False)
    delta = det_a + det_b + 2.0 * det_c
    root = np.sqrt(_at_least(delta * delta - 4.0 * det_m, 0.0))
    nu1 = np.sqrt(_at_least(0.5 * (delta + root), 0.0))
    nu2 = np.sqrt(_at_least(0.5 * (delta - root), 0.0))
    return nu1, nu2


def _entropy_term(nu: np.ndarray) -> np.ndarray:
    # Imported here: scipy.special costs a third of a second to import,
    # and no census path needs it.
    from scipy.special import xlogy

    up = 0.5 * (nu + 1.0)
    dn = 0.5 * _at_least(nu - 1.0, 0.0)
    return xlogy(up, up) - xlogy(dn, dn)


def entropy(M: np.ndarray) -> np.ndarray:
    """Von Neumann entropy in nats from the symplectic spectrum.

    Accepts a stack of 4x4 two-mode matrices or of 2x2 one-mode blocks,
    whose single symplectic eigenvalue is sqrt(det), and gives an (S,)
    array.
    """
    M = _stack(M, (4, 4), (2, 2))
    if M.shape[1:] == (2, 2):
        nus: tuple = (np.sqrt(_at_least(_det2(M), 0.0)),)
    else:
        nus = symplectic_eigenvalues(M)
    return sum(_entropy_term(_at_least(nu, 1.0)) for nu in nus)


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
