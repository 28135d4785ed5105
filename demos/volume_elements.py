"""Volume elements from discretized position kernels.

A Gaussian state's position kernel, discretized on an m x m grid,
yields a trace-normalized spectrum; monotone-metric volume elements are
then products over eigenvalue pairs.  The script discretizes one state
on a regular grid and on a handful of random grids, prints the three
volume elements, and shows the ordering that holds spectrum by
spectrum: Bures <= Kubo-Mori <= maximal.
"""

import numpy as np

from gausscensus.measures import (
    discretize,
    log_volume_element,
    regular_grid,
    robust_volume_multi,
)
from gausscensus.rng import grid_stream


def main() -> None:
    M = np.diag([12.0, 9.0, 10.0, 8.0])
    M[0, 2] = M[2, 0] = 1.5
    print("state: diagonal (12, 9, 10, 8) with x1-x2 coupling 1.5")

    # discretize takes a stack of matrices, one grid each: M is lane 0
    # of a stack of one.
    kernel = discretize(M[None], regular_grid(5)[None])
    print(f"\nregular 5x5 grid, spectrum (normalized): "
          f"{np.array_str(kernel.eigenvalues[0], precision=4)}")
    for kind in ("bures", "kubo_mori", "maximal"):
        print(f"  log volume [{kind:9s}] = {log_volume_element(kernel, kind)[0]:.6f}")

    stream = grid_stream(99, 0)
    estimates = robust_volume_multi(
        M, stream, metric_kinds=("bures", "kubo_mori", "maximal")
    )
    print("\nfive random grids on [-2, 2], robust summaries:")
    for kind in ("bures", "kubo_mori", "maximal"):
        est = estimates[kind]
        per_grid = ", ".join(f"{v:.3f}" for v in est.log_volumes)
        print(f"  {kind:9s}: per grid [{per_grid}]")
        print(f"  {'':9s}  median {est.median:.4f}, "
              f"trimmed mean {est.trimmed_mean:.4f}")

    print("\nordering check (every grid): bures <= kubo_mori <= maximal")
    for i in range(5):
        b = estimates["bures"].log_volumes[i]
        k = estimates["kubo_mori"].log_volumes[i]
        x = estimates["maximal"].log_volumes[i]
        print(f"  grid {i}: {b:.4f} <= {k:.4f} <= {x:.4f}  "
              f"{'ok' if b <= k <= x else 'VIOLATION'}")


if __name__ == "__main__":
    main()
