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


# Flat positions of the lower triangle of a 4x4 matrix, row by row.
_LOWER = np.array([0, 4, 5, 8, 9, 10, 12, 13, 14, 15])


def _lower(M: np.ndarray) -> np.ndarray:
    # The ten lower-triangle entries of each lane, the ones eigvalsh
    # reads, by one gather: row j of the result holds flat position
    # _LOWER[j] of every lane, contiguous.
    return M.reshape(len(M), 16)[:, _LOWER].T.copy()


def _minor3(m00, m10, m11, m20, m21, m22, det_a) -> tuple:
    # The leading 3x3 minor D3, expanded along row 2 over the 2x2 minors
    # s02 and s12 of rows 0-1 (columns named), which it returns too.
    s02 = m00 * m21 - m20 * m10
    s12 = m10 * m21 - m20 * m11
    return m20 * s12 - m21 * s02 + m22 * det_a, s02, s12


def _invariants(M: np.ndarray, closed: bool = True) -> tuple:
    # det A, det B and det C of each lane's blocks, det M and the leading
    # 3x3 minor D3, all read from the lower triangle.  With closed, det M
    # and D3 come from the Laplace expansion over the 2x2 minors of rows
    # 0-1 (s, columns named) and rows 2-3 (t); without, det M is LAPACK's
    # and D3 is None.
    m00, m10, m11, m20, m21, m22, m30, m31, m32, m33 = _lower(M)
    det_a = m00 * m11 - m10 * m10
    det_b = m22 * m33 - m32 * m32
    det_c = m20 * m31 - m30 * m21
    if not closed:
        return det_a, det_b, det_c, np.linalg.det(M), None
    d3, s02, s12 = _minor3(m00, m10, m11, m20, m21, m22, det_a)
    s03 = m00 * m31 - m30 * m10
    s13 = m10 * m31 - m30 * m11
    t02 = m20 * m32 - m22 * m30
    t03 = m20 * m33 - m32 * m30
    t12 = m21 * m32 - m22 * m31
    t13 = m21 * m33 - m32 * m31
    # The minor of rows 2-3 and columns 0-1 is det C as well.
    det_m = (det_a * det_b - s02 * t13 + s03 * t12 + s12 * t03 - s13 * t02
             + det_c * det_c)
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


def _closed_scale(M: np.ndarray) -> np.ndarray:
    # s of the comment above for each lane; NaN for a lane with a NaN.
    return 1.0 + np.abs(_lower(M)).max(axis=0)


def _minor_bands(s, t: float) -> list:
    # For j = 1..4, the pair (above_j, below_j) at scale s (one lane's s,
    # or an array of them): eigvalsh's min eigenvalue surely passes t
    # where every Hj > above_j, and surely fails it where some
    # Hj < -below_j.  Both grow with s, so the bands at an s above a
    # lane's own drop only lanes that surely fail.
    n = 5.0 * s
    d = _EIG_BACKWARD * n
    up, down = np.maximum(t + d, 0.0), np.maximum(d - t, 0.0)
    bands = []
    s_j, n_j = 1.0, 1.0  # s**j and N**(j - 1)
    for j, tau in enumerate(_MINOR_BAND, 1):
        s_j = s_j * s
        e = tau * s_j
        bands.append((e + up * n_j if j == 4 else e, e + down * n_j))
        n_j = n_j * n
    return bands


def _min_eig_bounds(minors: tuple, s: np.ndarray, t: float) -> tuple:
    # The lanes whose eigvalsh min eigenvalue surely passes and surely
    # fails the threshold t, from the leading minors H1..H4.  A lane
    # outside the scale window is in neither mask: its minors are junk.
    inside = s <= _CLOSED_SCALE
    passes, fails = inside.copy(), np.zeros_like(inside)
    for h, (above, below) in zip(minors, _minor_bands(np.where(inside, s, 1.0), t)):
        passes &= h > above
        fails |= h < -below
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

#: Trial points a grouped line-search pass evaluates at most.  Every
#: live lane first tries the full step; the lanes it does not serve try
#: the halved steps still open a group at a time, as many as fit for
#: every lane that has not moved yet.  Each lane takes the first step
#: that lowers its merit, the step a one-at-a-time search takes, so the
#: size changes nothing but the time.  Grouped passes serve mostly lanes
#: that stall and try all forty steps.  Over the table1 blocks at
#: (500, 250), (20, 10), (30, 20) and (15, 15) (BENCH_17.json, sweep),
#: 2048 took the (500, 250) block from 57-88 ms at 256 to 45-64 ms and
#: the four sets together from 124-169 ms to 105-153 ms; 64 was the
#: slowest in total, and 4096 read within 2% of 2048.
_TRIAL_POINTS = 2048

# Rows of the Newton's lane table: the point (u, v) = (log r1, log r2),
# its merit, its state (the rows _form_two_states writes: F1 F2 J11 J12
# J21 J22 al be ga de s) and the lane's n, m, |c| and |cp|.  A table of
# trial points holds the first 14 rows.
_POINT, _MERIT, _STATE, _PARAMS = slice(0, 2), 2, slice(3, 14), slice(14, 18)
_RESID, _TRIAL = slice(3, 5), 14
# Rows u v al be ga de s of the table, a lane's root.
_ROOT = [0, 1, 9, 10, 11, 12, 13]


def _exp(x: np.ndarray) -> np.ndarray:
    # libm's exp on each float of x.  numpy's real exp differs from it in
    # the last bit on a few percent of inputs, and the one-matrix chain
    # the census reproduces bit for bit used math.exp; glibc's complex
    # exp multiplies libm's exp(x) by cos 0 = 1 where |x| <= 709.
    return np.exp(x + 0j).real


def _form_two_states(point, params, out):
    # Residuals and Jacobian of the balancing system at (log r1, log r2)
    # = point, a (2, L) array, for every lane, written into the 11 rows
    # F1 F2 J11 J12 J21 J22 al be ga de s of out; returns the mask of
    # lanes inside the domain of the square roots.  The rows of a lane
    # outside it are junk, computed from a safe stand-in.  Each entry
    # takes the operations of the one-matrix chain in the same order,
    # several rows to a numpy call.
    inside = ~(np.abs(point) > 300.0).any(axis=0)
    if not inside.all():
        point = np.where(inside, point, 0.0)
    u, v = point
    x = np.empty((3, u.size))
    x[:2] = point
    np.add(u, v, out=x[2])
    x[2] *= 0.5
    ex = _exp(x)  # exp u, exp v, s
    w = out[6:10]  # al be ga de
    np.multiply(ex[:2], params[:2], out=out[6:10:2])  # al = n exp u, ga = m exp v
    np.divide(params[:2], ex[:2], out=out[7:10:2])  # be = n / exp u, de = m / exp v
    s = out[10]
    s[...] = ex[2]
    t = w - 1.0  # al-1 be-1 ga-1 de-1
    p = t[:2] * t[2:]  # P1 = (al-1)(ga-1), P2 = (be-1)(de-1)
    inside &= ~(p < 0.0).any(axis=0)
    if not inside.all():
        p = np.where(inside, p, 0.0)
    r = np.sqrt(p)  # R1, R2
    F1, F2, J11, J12 = out[:4]
    y = t[:2] * t[3:1:-1]  # (al-1)(de-1), (be-1)(ga-1)
    np.subtract(y[0], y[1], out=F1)
    ac, acp = params[2:]
    cs, cps = ac * s, acp / s
    np.add(cs - cps - r[0], r[1], out=F2)
    h = 0.5 * (cs + cps)
    e = np.where(r > 5e-13, 2.0 * r, 1e-12)  # e1, e2
    y = w[:2] * t[3:1:-1]  # al (de-1), be (ga-1)
    np.add(y[0], y[1], out=J11)
    y = w[3:1:-1] * t[:2]  # de (al-1), ga (be-1)
    np.subtract(-y[0], y[1], out=J12)
    # q[0] = al (ga-1) / e1, be (de-1) / e2 and q[1] = ga (al-1) / e1,
    # de (be-1) / e2: J21 and J22 are h - q[i, 0] - q[i, 1].
    q = w.reshape(2, 2, -1) * t.reshape(2, 2, -1)[::-1]
    q /= e
    np.subtract(h - q[:, 0], q[:, 1], out=out[4:6])
    return inside


def _merit(resid: np.ndarray) -> np.ndarray:
    # F1^2 + F2^2 from the rows F1 F2.  Squares of residuals far outside
    # overflow to inf, as in floats.
    with np.errstate(over="ignore"):
        sq = resid * resid
    return sq[0] + sq[1]


def _try(trial, params, merit):
    # Fills the merit and state rows of a trial table at its points and
    # gives the mask of lanes whose point is inside the domain, has
    # finite residuals and lowers the merit.
    inside = _form_two_states(trial[_POINT], params, trial[_STATE])
    trial[_MERIT] = _merit(trial[_RESID])
    return inside & np.isfinite(trial[_RESID]).all(axis=0) & (trial[_MERIT] < merit)


def _line_search(table, step):
    # Per lane, the first halved step along step, a (2, L) array, whose
    # trial point _try accepts.  Writes the point, merit and state of
    # the lanes that moved into table and returns their mask.  The full
    # step is tried for every lane at once, the halved ones only for the
    # lanes it fails.
    trial = np.empty((_TRIAL, table.shape[1]))
    np.add(table[_POINT], step, out=trial[_POINT])
    moved = _try(trial, table[_PARAMS], table[_MERIT])
    np.copyto(table[:_TRIAL], trial, where=moved)
    pending = np.flatnonzero(~moved)
    lo = 1
    while pending.size and lo < _STEPS.size:
        steps = _STEPS[lo:lo + max(1, _TRIAL_POINTS // pending.size)]
        lo += steps.size
        trial = np.empty((_TRIAL, pending.size * steps.size))
        trial[_POINT] = (table[_POINT, pending, None]
                         + steps * step[:, pending, None]).reshape(2, -1)
        good = _try(trial, np.repeat(table[_PARAMS, pending], steps.size, axis=1),
                    np.repeat(table[_MERIT, pending], steps.size))
        good = good.reshape(-1, steps.size)
        hit = good.any(axis=1)
        pick = np.flatnonzero(hit) * steps.size + good[hit].argmax(axis=1)
        done = pending[hit]
        moved[done] = True
        table[:_TRIAL, done] = trial[:, pick]
        pending = pending[~hit]
    return moved


def _solve_form_two(params, tol):
    # Damped Newton on (log r1, log r2) from (0, 0), one lane per solve,
    # for the lanes of params, rows n m |c| |cp|: every live lane takes
    # its step of the same iteration together and leaves on convergence
    # or failure, and the table of live lanes is compacted only when
    # some leave.  Returns the failure codes and the rows u v al be ga
    # de s at each lane's root.
    lanes = params.shape[1]
    failure = np.zeros(lanes, dtype=np.int8)
    root = np.full((7, lanes), math.nan)
    table = np.empty((18, lanes))
    table[_POINT] = 0.0
    table[_PARAMS] = params
    # Every lane starts inside the domain: to_standard_form_two passes
    # only lanes with n, m >= 1 (or NaN), so (n - 1)(m - 1) is not < 0.
    _form_two_states(table[_POINT], table[_PARAMS], table[_STATE])
    live = np.arange(lanes)
    table[_MERIT] = _merit(table[_RESID])
    resid = tol.newton_residual
    for _ in range(tol.newton_max_iter):
        if not live.size:
            break
        F1, F2, J11, J12, J21, J22 = table[_STATE][:6]
        converged = (np.abs(table[_RESID]) < resid).all(axis=0)
        with np.errstate(over="ignore", invalid="ignore"):
            det = J11 * J22 - J12 * J21
        singular = ~converged & ((det == 0.0) | ~np.isfinite(det))
        leave = converged | singular
        if leave.any():
            root[:, live[converged]] = table[_ROOT][:, converged]
            failure[live[singular]] = SolverFailure.SINGULAR_JACOBIAN
            keep = ~leave
            table, live, det = table[:, keep], live[keep], det[keep]
            F1, F2, J11, J12, J21, J22 = table[_STATE][:6]
        step = np.empty((2, live.size))
        with np.errstate(over="ignore", invalid="ignore"):
            np.divide(-(J22 * F1 - J12 * F2), det, out=step[0])
            np.divide(-(-J21 * F1 + J11 * F2), det, out=step[1])
        moved = _line_search(table, step)
        if not moved.all():
            failure[live[~moved]] = SolverFailure.LINE_SEARCH_STALLED
            table, live = table[:, moved], live[moved]
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
    code, root = _solve_form_two(
        np.stack((n[lanes], m[lanes], np.abs(c[lanes]), np.abs(cp[lanes]))), tol)
    failure[lanes] = code
    solved = lanes[code == SolverFailure.NONE]
    form = np.full((9, n.size), math.nan)
    failure[solved], form[:, solved] = _assemble_form_two(
        root[:, code == SolverFailure.NONE], c[solved], cp[solved], tol)
    form[:, failure != SolverFailure.NONE] = math.nan
    return StandardFormII(*form, failure=failure)


def _assemble_form_two(root, c, cp, tol):
    # Form II at each lane's root; lanes whose a0 has no real value fail.
    # np.float_power, unlike np.power, takes x ** 0.25 from libm's pow.
    n1, n2, m1, m2, s = root[2:]
    balanced = ~(
        (np.abs(n1 - 1.0) <= tol.degenerate_abs)
        | (np.abs(m1 - 1.0) <= tol.degenerate_abs)
    )
    radicand = (m1[balanced] - 1.0) / (n1[balanced] - 1.0)
    admissible = ~(radicand <= 0.0)
    balanced = np.flatnonzero(balanced)
    failure = np.zeros(n1.size, dtype=np.int8)
    failure[balanced[~admissible]] = SolverFailure.INADMISSIBLE_ROOT
    a0 = np.ones(n1.size)
    a0[balanced[admissible]] = np.float_power(radicand[admissible], 0.25)
    r1, r2 = _exp(root[:2])
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
