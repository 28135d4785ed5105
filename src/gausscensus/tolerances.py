"""Central numerical tolerance record shared by all modules."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every cutoff used by the filters, solvers and verdicts.

    The filters, solvers and kernel functions take an instance as `tol`,
    but the census drivers do not: every block runner uses DEFAULT (and
    the one-mode block hard-codes its physicality slack), so a census
    cannot yet be run under other cutoffs.
    """

    physical_min_eig: float = -1e-10     # min eig of M + i*Omega for physicality
    invariant_rel: float = 1e-10         # relative slack on algebraic invariants
    complex_root_rel: float = 1e-10      # discriminant guard in the form-I split
    newton_residual: float = 1e-12       # convergence target for the form-II solver
    newton_max_iter: int = 200
    degenerate_abs: float = 1e-12        # |n-1|, |m-1| window for the degenerate form
    variance_slack: float = 1e-12        # ">=" slack in the variance comparisons
    ppt_min_eig: float = -1e-10          # min eig of the reflected matrix + i*Omega
    classical_min_eig: float = 1e-12     # strict positivity of M - I
    margin_band: float = 1e-9            # verdict-disagreement boundary band
    spectrum_floor_rel: float = 1e-13    # kernel eigenvalue acceptance, relative to max
    grid_coincidence: float = 1e-9       # minimum distance between grid coordinates
    fd_step_rel: float = 1e-4            # finite-difference step, relative
    fd_richardson_rel: float = 1e-3      # step-halving disagreement limit


DEFAULT = Tolerances()
