#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Shows that the checks in `oracle.py` can fail: a census row with one
count altered must fail its check without being blamed on the known
fault, the k=500, l=250 row must fail with the Newton fault named, a
Bures result with a broken property must fail, and tracing must leave a
census result unchanged and every wrapped attribute restored.  Exits 0
when every case behaves so, 1 otherwise.  Takes a few seconds.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from gausscensus import montecarlo  # noqa: E402
from gausscensus.tolerances import DEFAULT  # noqa: E402

import oracle  # noqa: E402
import spans  # noqa: E402
from run import _census_row, _fingerprint  # noqa: E402


def _jeffreys(k, l, samples, seed):
    cfg = montecarlo.SamplerConfig(k=k, l=l, samples=samples, seed=seed)
    return montecarlo.run_classical_census(cfg), oracle.eigen_census(k, l, samples, seed, DEFAULT)


def cases():
    result, ref = _jeffreys(10.0, 5.0, 20_000, 7)
    row = _census_row(result)
    problems, known = oracle.check_jeffreys(row, ref)
    yield "k=10 row passes", not problems and not known, problems
    for key in ("accepted", "separable", "classical"):
        altered = dict(row, **{key: row[key] + ref.near_boundary + 1})
        problems, known = oracle.check_jeffreys(altered, ref)
        yield f"k=10 row with {key} altered fails", bool(problems) and not known, problems
    altered = dict(row, prob_sep=row["prob_sep"] * (1 + 1e-6))
    problems, known = oracle.check_jeffreys(altered, ref)
    yield "k=10 row with prob_sep altered fails", bool(problems) and not known, problems

    result, ref = _jeffreys(500.0, 250.0, 20_000, 101)
    problems, known = oracle.check_jeffreys(_census_row(result), ref)
    named = any("NoConvergenceError" in p for p in problems)
    yield "k=500 row fails with the Newton fault named", known and named, problems

    cfg = montecarlo.SamplerConfig(k=15.0, l=15.0, samples=20_000, seed=3)
    bures = montecarlo.run_bures_census(cfg, metric_kinds=("bures", "kubo_mori", "maximal"))
    physical = oracle.eigen_census(15.0, 15.0, 20_000, 3, DEFAULT)
    problems = oracle.check_bures(bures, physical)
    yield "bures result passes", not problems, problems
    for change in (dict(ordering_faults=1), dict(accepted=bures.accepted + 1),
                   dict(separable=bures.accepted - bures.discarded_grids + 1)):
        problems = oracle.check_bures(dataclasses.replace(bures, **change), physical)
        yield f"bures result with {change} fails", bool(problems), problems

    originals = [getattr(m, a) for m, a, _, _ in spans.targets()]
    tracer = spans.Tracer()
    with tracer:
        traced = montecarlo.run_bures_census(cfg, metric_kinds=("bures", "kubo_mori", "maximal"))
    restored = all(getattr(m, a) is f
                   for (m, a, _, _), f in zip(spans.targets(), originals))
    same = _fingerprint(traced) == _fingerprint(bures)
    counted = tracer.get("criteria.classify").calls > 0 and tracer.get("measures.discretize").calls > 0
    yield "tracing changes no result and restores every attribute", restored and same and counted, []


def main() -> int:
    ok = True
    for name, passed, problems in cases():
        print(f"{'ok  ' if passed else 'BAD '} {name}" + (f": {'; '.join(problems)}" if problems else ""))
        ok &= passed
    print("selftest:", "ok" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
