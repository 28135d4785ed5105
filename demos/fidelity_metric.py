"""Fidelity between one-mode Gaussian states and the metric it induces.

Fidelity between two covariance matrices comes from a closed
determinant formula; differentiating it twice gives the Bures metric.
The finite-difference metric on the squeezed thermal family factorizes,
up to one global constant, into a product of a squeezing marginal and a
temperature marginal, and both marginals integrate to infinity, so no
normalizable prior exists on the full family.
"""

import math

import numpy as np

from gausscensus.fidelity import (
    bures_distance_sq,
    fidelity_one_mode,
    improperness_probe,
    marginal_f,
    marginal_g,
    metric_by_finite_difference,
)
from gausscensus.states import SqueezedThermalParams, squeezed_thermal_covariance


def main() -> None:
    a = squeezed_thermal_covariance(SqueezedThermalParams(beta=2.0, r=0.3))
    b = squeezed_thermal_covariance(SqueezedThermalParams(beta=2.5, r=0.5))
    F = fidelity_one_mode(a, b)
    print("two squeezed thermal states, (beta, r) = (2.0, 0.3) and (2.5, 0.5):")
    print(f"  fidelity               = {F:.8f}")
    print(f"  squared bures distance = {bures_distance_sq(F):.8f}")
    print(f"  self fidelity          = {fidelity_one_mode(a, a):.8f}")

    point = SqueezedThermalParams(beta=4.0, r=0.5)
    g = metric_by_finite_difference(point)
    print(f"\nfinite-difference metric at (beta=4, r=0.5, theta=0):")
    print(np.array_str(g, precision=6, suppress_small=True))
    print(f"  eigenvalues: {np.linalg.eigvalsh(g)}")

    print("\nfactorization of sqrt(det g) over a (beta, r) sweep:")
    print(f"{'beta':>6s} {'r':>5s} {'sqrt(det g)':>12s} "
          f"{'f(r)*g(beta)':>13s} {'ratio':>10s}")
    for beta in (2.0, 4.0, 6.0):
        for r in (0.2, 0.8):
            g = metric_by_finite_difference(
                SqueezedThermalParams(beta=beta, r=r)
            )
            sqrt_det = math.sqrt(np.linalg.det(g))
            product = marginal_f(r) * marginal_g(beta)
            print(f"{beta:6.1f} {r:5.1f} {sqrt_det:12.6f} "
                  f"{product:13.6f} {sqrt_det / product:10.6f}")

    print("\nthe squeezing marginal integrates to (cosh 2R - 1)/2:")
    for R in (5.0, 10.0, 20.0):
        got = improperness_probe(marginal_f, R)
        closed = (math.cosh(2.0 * R) - 1.0) / 2.0
        print(f"  integral to R = {R:4.1f}: {got:.6e} (closed form {closed:.6e})")


if __name__ == "__main__":
    main()
