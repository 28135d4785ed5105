"""Reduce a two-mode covariance matrix to its standard forms.

Every physical two-mode Gaussian state is locally equivalent to a
four-parameter form (n, m, c, c'), and from there to a squeeze-balanced
form used by the separability bound.  This script builds a correlated
covariance matrix, walks it through both reductions, and verifies the
balancing equations numerically.
"""

import math

import numpy as np

from gausscensus.states import (
    is_physical,
    symplectic_eigenvalues,
    to_standard_form_one,
    to_standard_form_two,
)


def main() -> None:
    rng = np.random.default_rng(7)
    A = rng.normal(size=(4, 4))
    M = A @ A.T + 2.0 * np.eye(4)
    print("covariance matrix (x1, p1, x2, p2):")
    print(np.array_str(M, precision=4))
    # The package takes stacks of matrices: M is lane 0 of a stack of one.
    print(f"physical: {is_physical(M[None])[0]}")

    nu1, nu2 = (nu[0] for nu in symplectic_eigenvalues(M[None]))
    print(f"symplectic eigenvalues: {nu1:.6f}, {nu2:.6f}")
    print(f"product check nu1*nu2 = sqrt(det M): "
          f"{nu1 * nu2:.6f} vs {math.sqrt(np.linalg.det(M)):.6f}")

    f1 = to_standard_form_one(M[None])
    print("\nfour-parameter form (n, m, c, c'):")
    print(f"  n  = {f1.n[0]:.6f}")
    print(f"  m  = {f1.m[0]:.6f}")
    print(f"  c  = {f1.c[0]:.6f}")
    print(f"  c' = {f1.cp[0]:.6f}")

    f2 = to_standard_form_two(f1)
    n1, n2, m1, m2, c1, c2, a0, r1, r2 = (
        x[0] for x in (f2.n1, f2.n2, f2.m1, f2.m2, f2.c1, f2.c2, f2.a0, f2.r1, f2.r2))
    print("\nsqueeze-balanced form with scale a0:")
    print(f"  a0 = {a0:.6f}   r1 = {r1:.6f}   r2 = {r2:.6f}")
    print(f"  n1 = {n1:.6f}   n2 = {n2:.6f}")
    print(f"  m1 = {m1:.6f}   m2 = {m2:.6f}")
    print(f"  c1 = {c1:.6f}   c2 = {c2:.6f}")

    # The two balancing equations the Newton solver drove to zero.
    bal1 = (n1 - 1.0) * (m2 - 1.0) - (n2 - 1.0) * (m1 - 1.0)
    bal2 = (
        abs(c1) - abs(c2)
        - math.sqrt((n1 - 1.0) * (m1 - 1.0))
        + math.sqrt((n2 - 1.0) * (m2 - 1.0))
    )
    print("\nbalancing residuals:")
    print(f"  cross-product balance = {bal1:.2e}")
    print(f"  correlation balance   = {bal2:.2e}")


if __name__ == "__main__":
    main()
