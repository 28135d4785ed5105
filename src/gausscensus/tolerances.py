"""Central numerical tolerance record shared by all modules."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Every cutoff used by the filters, solvers and verdicts.

    The filters, solvers and kernel functions take an instance as `tol`,
    but the census drivers do not: every block runner uses DEFAULT (and
    the one-mode block hard-codes its physicality slack), so a census
    cannot yet be run under other cutoffs.

    The three *_min_eig cutoffs are thresholds on the min eigenvalue
    that eigvalsh gives.  The tests read their verdicts from closed-form
    leading minors and call eigvalsh only where rounding could make the
    two differ (states._min_eig_bounds), so the cutoffs keep their
    values, units and meaning.
    """

    physical_min_eig: float = -1e-10     # min eig of M + i*Omega for physicality
    complex_root_rel: float = 1e-10      # discriminant guard in the form-I split
    newton_residual: float = 1e-12       # convergence target for the form-II solver
    newton_max_iter: int = 200
    degenerate_abs: float = 1e-12        # |n-1|, |m-1| window for the degenerate form
    variance_slack: float = 1e-12        # ">=" slack in the variance comparisons
    ppt_min_eig: float = -1e-10          # min eig of the reflected matrix + i*Omega
    classical_min_eig: float = 1e-12     # strict positivity of M - I: min eig above this
    margin_band: float = 1e-9            # verdict-disagreement band on margin_sep and margin_ppt
    spectrum_floor_rel: float = 1e-13    # kernel eigenvalue acceptance, relative to max
    grid_coincidence: float = 1e-9       # minimum distance between grid coordinates
    fd_step_rel: float = 1e-4            # finite-difference step, relative
    fd_richardson_rel: float = 1e-3      # step-halving disagreement limit


DEFAULT = Tolerances()
