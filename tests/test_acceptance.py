"""Acceptance suite: one printed PASS/FAIL line per numbered check.

Each test prints its verdict line before asserting, so a full run
leaves a ten-line scoreboard in the log even when a check fails.

Check 1 compares the k=10, l=5 census with `oracles.exact_census`, an
eigenvalue census over the same uniforms.  It once asserted the
published row acceptance 0.11767 +- 0.0015, separable count fraction
0.98008 +- 0.002, weighted prob_sep 0.99333 +- 0.01 and weighted
prob_classical in [5e-7, 5e-6].  That row came from a pipeline that
misclassified near-pure states, and no correct census can meet it: at
seed 20250819 the oracle counts 61,355 physical, 59,233 separable and
31,897 classical samples of 500,000 (acceptance 0.12271, separable
fraction 0.96541) with prob_sep 0.31702 and prob_classical 9.200e-3.
Over seeds 20250819-20250824 it reads acceptance 0.1225-0.1244 (one
standard error is 0.00046), separable fraction 0.9629-0.9654, prob_sep
0.27-0.41 and prob_classical 0.0076-0.0105.

Check 4 keeps its reference bounds.  The float64 floor on kernel
spectra decides its survivor-population and grid-discard clauses
(ROADMAP item 4), so it fails, and its detail records the measured
values.
"""

import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import gausscensus
from gausscensus import fidelity, measures
from gausscensus.montecarlo import (
    SamplerConfig,
    run_bures_census,
    run_classical_census,
    run_one_mode_classicality,
)
from gausscensus.states import SqueezedThermalParams
from gausscensus.tolerances import DEFAULT

from oracles import exact_census, kernel_by_quadrature

SEED = 20250819


@pytest.fixture
def report(capsys):
    """Verdict printer: one line per check, shown even under capture."""

    def _report(num: int, name: str, clauses: list[tuple[str, bool]]) -> None:
        ok = all(flag for _, flag in clauses)
        if ok:
            detail = "; ".join(label for label, _ in clauses)
        else:
            detail = "; ".join(label for label, flag in clauses if not flag)
        line = f"ACCEPT {num:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


def test_01_reference_row_10_5(report) -> None:
    cfg = SamplerConfig(k=10.0, l=5.0, samples=500_000, seed=SEED)
    t0 = time.perf_counter()
    res = run_classical_census(cfg)
    wall = time.perf_counter() - t0
    ref = exact_census(cfg, DEFAULT)
    band = ref.near_boundary
    p_sep = res.prob_sep()
    p_cls = res.prob_classical()
    report(1, "reference row k=10 l=5", [
        (f"accepted {res.accepted} vs oracle {ref.accepted} +-{band}",
         abs(res.accepted - ref.accepted) <= band),
        (f"separable {res.separable} vs oracle {ref.separable} +-{band}",
         abs(res.separable - ref.separable) <= band),
        (f"classical {res.classical} vs oracle {ref.classical} +-{band}",
         abs(res.classical - ref.classical) <= band),
        (f"weighted prob_sep {p_sep:.5f} vs oracle {ref.prob_sep:.5f}",
         math.isclose(p_sep, ref.prob_sep, rel_tol=1e-9)),
        (f"weighted prob_classical {p_cls:.3e} vs oracle {ref.prob_classical:.3e}",
         math.isclose(p_cls, ref.prob_classical, rel_tol=1e-9)),
        (f"runtime {wall:.0f}s < 300s", wall < 300.0),
    ])


def test_02_reference_row_500_250(report) -> None:
    cfg = SamplerConfig(k=500.0, l=250.0, samples=190_000, seed=SEED)
    res = run_classical_census(cfg)
    p_sep = res.prob_sep()
    report(2, "reference row k=500 l=250", [
        (f"prob_sep {p_sep:.6f} >= 0.9999", p_sep >= 0.9999),
    ])


def test_03_oracle_agreement_bulk(report) -> None:
    cfg = SamplerConfig(k=15.0, l=15.0, samples=24_000_000, seed=SEED)
    disagreement = None
    try:
        res = run_classical_census(cfg)
        accepted = res.accepted
    except Exception as exc:  # an oracle conflict aborts the run
        disagreement = exc
        accepted = 0
    report(3, "variance vs transpose oracle", [
        (f"accepted {accepted} >= 100000", accepted >= 100_000),
        (f"disagreements: {disagreement}", disagreement is None),
    ])


def test_04_volume_element_census(report) -> None:
    cfg = SamplerConfig(k=15.0, l=15.0, samples=2_000_000, seed=SEED)
    res = run_bures_census(cfg)
    discard = res.discarded_grids / res.accepted
    p_sep_med = res.prob_sep("bures:median")
    p_cls_med = res.prob_classical("bures:median")
    p_sep_trim = res.prob_sep("bures:trimmed_mean")
    p_cls_trim = res.prob_classical("bures:trimmed_mean")
    p_sep_f = res.prob_sep("fisher")
    p_cls_f = res.prob_classical("fisher")
    report(4, "volume-element census k=l=15", [
        (f"median prob_sep {p_sep_med:.6f} > 0.999", p_sep_med > 0.999),
        (f"median prob_classical {p_cls_med:.3e} < 1e-3", p_cls_med < 1e-3),
        (f"trimmed prob_sep {p_sep_trim:.6f} > 0.999", p_sep_trim > 0.999),
        (f"trimmed prob_classical {p_cls_trim:.3e} < 1e-3", p_cls_trim < 1e-3),
        (f"survivor-population prob_sep {p_sep_f:.5f} vs [0.80, 0.93]",
         0.80 <= p_sep_f <= 0.93),
        (f"survivor-population prob_classical {p_cls_f:.4f} vs [0.003, 0.03]",
         0.003 <= p_cls_f <= 0.03),
        (f"grid-discard fraction {discard:.4f} vs [0.033, 0.132]",
         0.033 <= discard <= 0.132),
    ])


def test_05_monotone_metric_censuses(report) -> None:
    cfg = SamplerConfig(k=15.0, l=15.0, samples=2_400_000, seed=SEED)
    res = run_bures_census(cfg, metric_kinds=("bures", "kubo_mori", "maximal"))
    report(5, "kubo-mori and maximal volumes", [
        (f"accepted {res.accepted} >= 10000", res.accepted >= 10_000),
        (f"numerical faults {res.numerical_faults} == 0",
         res.numerical_faults == 0),
        (f"volume-ordering faults {res.ordering_faults} == 0",
         res.ordering_faults == 0),
    ])


def test_06_kernel_against_quadrature(report) -> None:
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        M = A @ A.T + 1.5 * np.eye(4)
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=2)
            xp = rng.uniform(-1.0, 1.0, size=2)
            closed = measures.schroedinger_kernel(M, x, xp)
            direct = kernel_by_quadrature(M, x, xp, n=240)
            rel = abs(closed - direct) / max(abs(closed), abs(direct))
            worst = max(worst, rel)
    report(6, "closed-form kernel vs quadrature", [
        (f"worst relative error {worst:.2e} <= 1e-8", worst <= 1e-8),
    ])


def test_07_metric_determinant_factorizes(report) -> None:
    ratios = []
    for beta in np.linspace(2.0, 6.0, 5):
        for r in np.linspace(0.1, 0.9, 5):
            g = fidelity.metric_by_finite_difference(
                SqueezedThermalParams(beta=float(beta), r=float(r))
            )
            sqrt_det = math.sqrt(float(np.linalg.det(g)))
            expected = (
                math.sinh(2.0 * r)
                * math.cosh(beta / 4.0)
                * (math.cosh(beta / 4.0) / math.sinh(beta / 4.0))
                / (8.0 * math.cosh(beta / 2.0))
            )
            ratios.append(sqrt_det / expected)
    spread = (max(ratios) - min(ratios)) / (sum(ratios) / len(ratios))
    report(7, "metric determinant factorization", [
        (f"ratio spread {spread:.2e} < 1e-3 over 5x5 grid", spread < 1e-3),
    ])


def test_08_unbounded_marginal_integrals(report) -> None:
    values = []
    worst = 0.0
    for R in (10.0, 20.0, 30.0):
        got = fidelity.improperness_probe(fidelity.marginal_f, R)
        want = (math.cosh(2.0 * R) - 1.0) / 2.0
        worst = max(worst, abs(got - want) / want)
        values.append(got)
    report(8, "squeezing marginal grows unbounded", [
        (f"worst closed-form error {worst:.2e} <= 1e-8", worst <= 1e-8),
        (f"growth {values[0]:.2e} < {values[1]:.2e} < {values[2]:.2e}",
         values[0] < values[1] < values[2]),
    ])


def test_09_one_mode_classicality_trend(report) -> None:
    cfg = SamplerConfig(k=10.0, l=5.0, samples=1_000_000, seed=SEED)
    points = run_one_mode_classicality(cfg, ks=(10.0, 100.0, 1000.0))
    clauses = []
    for a, b in zip(points, points[1:]):
        gap = 3.0 * math.hypot(a.stderr, b.stderr)
        clauses.append((
            f"p(k={b.k:g}) {b.prob_classical:.4f} < p(k={a.k:g}) "
            f"{a.prob_classical:.4f} + 3sigma",
            b.prob_classical < a.prob_classical + gap,
        ))
    report(9, "one-mode classicality decreasing", clauses)


def test_10_byte_identical_csv_across_workers(report) -> None:
    # Run the module behind the console script, with the package under
    # test first on the child's path, so no install is needed.
    src = str(Path(gausscensus.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p
    )
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for workers in (1, 4, 16):
            path = Path(tmp) / f"census-w{workers}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "gausscensus.cli", "census",
                 "--k", "10", "--l", "5",
                 "--samples", "200000", "--seed", str(SEED),
                 "--workers", str(workers), "--out", str(path)],
                capture_output=True,
                text=True,
                env=env,
            )
            assert proc.returncode == 0, proc.stderr
            outputs[workers] = path.read_bytes()
    report(10, "byte-identical output at 1/4/16 workers", [
        ("workers 4 == workers 1", outputs[4] == outputs[1]),
        ("workers 16 == workers 1", outputs[16] == outputs[1]),
    ])
