"""A fixed reference kernel that measures how fast the machine runs now.

On a shared host the same census call runs up to 40% faster or slower
for stretches of seconds to minutes, and CPU time moves with wall time,
so neither can be steadied by averaging a run of half a minute.  The
benchmark therefore times `reference_s()` after every in-process census
call and every import of `setup_s`, and multiplies the run's times by
`REFERENCE_S` over the mean reference time of the run: the times the
calls would take on a machine on which the reference takes
`REFERENCE_S`.  The kernel is this file's own code over fixed inputs
and calls nothing of the program, so a change to the program moves the
call times and leaves the reference alone.

Its work is the census's mix: a Python loop of small numpy linear
algebra on 4 x 4 matrices (as in `criteria`, `states` and `measures`)
and vectorised Philox uniforms with array arithmetic (as in `rng` and
the census's matrix build).
"""

from __future__ import annotations

import time

import numpy as np

#: About the median `reference_s()` on the reference machine (2 vCPUs of
#: an Intel Xeon at 2.1 GHz; see README.md), where it read 0.054-0.067 s
#: over runs.  It only fixes the scale of the reported figures.
REFERENCE_S = 0.065

_MATRICES = None
_UPPER = np.triu_indices(4, 1)


def _matrices() -> list:
    global _MATRICES
    if _MATRICES is None:
        a = np.random.default_rng(20250819).standard_normal((400, 4, 4))
        _MATRICES = list(a @ a.transpose(0, 2, 1) + 4.0 * np.eye(4))
    return _MATRICES


def _kernel() -> float:
    total = 0.0
    for i in range(4):
        for m in _matrices():
            total += float(np.linalg.eigvalsh(m)[0]) + float(m[_UPPER].sum())
            total += float(np.log(np.linalg.det(m)))
        u = np.random.Generator(np.random.Philox(key=[20250819, i])).random((1 << 16, 10))
        total += float(np.einsum("ij,ij->", u, u))
    return total


def reference_s() -> float:
    """Wall seconds of one pass of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0
