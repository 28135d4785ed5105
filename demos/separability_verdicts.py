"""Classify named Gaussian states with both separability tests.

The package carries two independent verdicts: a variance bound on the
squeeze-balanced form, and a partial-transpose check on the symplectic
spectrum of the momentum-mirrored matrix.  They must agree everywhere
outside a hair-thin boundary band; this script shows both margins side
by side on states whose status is known in advance.
"""

import numpy as np

from gausscensus.criteria import classify, is_separable_ppt, total_variance
from gausscensus.states import to_standard_form_one, to_standard_form_two


def two_mode_squeezed_vacuum(r: float) -> np.ndarray:
    ch, sh = np.cosh(2.0 * r), np.sinh(2.0 * r)
    M = np.diag([ch, ch, ch, ch])
    M[0, 2] = M[2, 0] = sh
    M[1, 3] = M[3, 1] = -sh
    return M


def product_thermal(nu1: float, nu2: float) -> np.ndarray:
    return np.diag([nu1, nu1, nu2, nu2])


def main() -> None:
    cases = [
        ("vacuum", np.eye(4)),
        ("thermal product 2 x 3", product_thermal(2.0, 3.0)),
        ("squeezed vacuum r=0.3", two_mode_squeezed_vacuum(0.3)),
        ("squeezed vacuum r=1.2", two_mode_squeezed_vacuum(1.2)),
    ]
    rng = np.random.default_rng(11)
    A = rng.normal(size=(4, 4))
    cases.append(("random correlated", A @ A.T + 2.5 * np.eye(4)))

    header = f"{'state':24s} {'separable':>9s} {'classical':>9s} " \
             f"{'variance margin':>16s} {'transpose margin':>17s}"
    print(header)
    print("-" * len(header))
    stack = np.stack([M for _, M in cases])
    verdict = classify(stack)
    # classify keeps the mirror margin only where the two tests could
    # conflict; is_separable_ppt gives it for every state.
    _, margin_ppt = is_separable_ppt(stack)
    for i, (name, _) in enumerate(cases):
        print(f"{name:24s} {str(verdict.separable[i]):>9s} "
              f"{str(verdict.classical[i]):>9s} "
              f"{verdict.margin_sep[i]:16.6e} {margin_ppt[i]:17.6e}")

    # The squeezed vacuum sits exactly on the bound at r = 0 and its
    # total variance decays like 2 exp(-2r) below it as squeezing grows.
    print("\nsqueezed-vacuum variance walk:")
    radii = (0.0, 0.25, 0.5, 1.0)
    M = np.stack([two_mode_squeezed_vacuum(r) for r in radii])
    rep = total_variance(to_standard_form_two(to_standard_form_one(M)))
    sep, margin = is_separable_ppt(M)
    for i, r in enumerate(radii):
        print(f"  r = {r:4.2f}: total variance {rep.total_variance[i]:8.5f} "
              f"(separability bound {rep.separability_bound[i]:.5f}), "
              f"transpose margin {margin[i]:+.5f}, separable {sep[i]}")


if __name__ == "__main__":
    main()
