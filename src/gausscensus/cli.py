"""Command line front end for the census drivers.

Standard output carries only machine-readable results (CSV, JSON lines,
or an aligned table); progress and diagnostics go to standard error.
Exit codes: 0 success, 1 I/O or empty-result failure, 2 oracle
disagreement, 64 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import criteria, fidelity, measures, montecarlo
from .states import SqueezedThermalParams
from .montecarlo import SamplerConfig

EXIT_OK = 0
EXIT_IO = 1
EXIT_ORACLE = 2
EXIT_USAGE = 64

ENV_WORKERS = "GAUSSCENSUS_WORKERS"

TABLE1_ROWS = (
    (10.0, 5.0, 500_000),
    (500.0, 250.0, 1_900_000),
    (20.0, 10.0, 5_200_000),
    (30.0, 20.0, 8_100_000),
    (15.0, 15.0, 10_000_000),
)

CENSUS_FIELDS = [
    "k", "l", "samples", "accepted", "separable", "classical",
    "prob_sep", "prob_classical", "seed",
]
BURES_FIELDS = [
    "measure", "k", "l", "samples", "accepted", "discarded", "separable",
    "classical", "prob_sep", "prob_classical", "seed",
]
ONE_MODE_FIELDS = [
    "k", "l", "samples", "physical", "classical", "prob_classical",
    "stderr", "seed",
]
ENTROPY_FIELDS = ["samples", "physical", "separable", "violations", "seed"]
FIDELITY_FIELDS = ["beta", "r", "sqrt_det_g", "ratio", "spread"]


class UsageError(Exception):
    pass


class EmptyResultError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(f"{self.prog}: error: {message}")


def _g17(x: float) -> str:
    return f"{float(x):.17g}"


def _split_floats(text: str, expect: int | None = None) -> list[float]:
    parts = [p for p in text.replace(",", " ").split() if p]
    values = [float(p) for p in parts]
    if expect is not None and len(values) != expect:
        raise ValueError(f"expected {expect} numbers, got {text!r}")
    return values


_CONFIG_CONVERTERS = {
    "k": float,
    "l": float,
    "samples": int,
    "seed": int,
    "workers": int,
    "scale": float,
    "grid_size": int,
    "n_grids": int,
    "grid_points": int,
    "h": float,
    "out": str,
    "format": str,
    "robust": lambda s: [p for p in s.replace(",", " ").split() if p],
    "metric": lambda s: [p for p in s.replace(",", " ").split() if p],
    "ks": _split_floats,
    "grid_range": lambda s: _split_floats(s, 2),
    "beta_range": lambda s: _split_floats(s, 2),
    "r_range": lambda s: _split_floats(s, 2),
}


def _load_config(path: str) -> dict:
    """Parse a key=value file; '#' starts a comment, blanks are skipped."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip().replace("-", "_")
        conv = _CONFIG_CONVERTERS.get(key)
        if conv is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = conv(value.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: {exc}")
    return values


def _build_parser() -> _Parser:
    parser = _Parser(prog="gausscensus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p, sampling=True):
        if sampling:
            p.add_argument("--k", type=float, default=None)
            p.add_argument("--l", type=float, default=None)
            p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("csv", "json", "table"), default=None)
        p.add_argument("--config", default=None)

    p = sub.add_parser("table1", help="five-row census sweep")
    p.add_argument("--scale", type=float, default=None)
    common(p, sampling=False)

    p = sub.add_parser("census", help="weighted separability census")
    common(p)

    p = sub.add_parser("bures", help="volume-element census on random grids")
    p.add_argument("--grid-size", type=int, default=None)
    p.add_argument("--n-grids", type=int, default=None)
    p.add_argument("--grid-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--metric", action="append", default=None,
                   choices=("fisher", "bures", "kubo-mori", "maximal"))
    p.add_argument("--robust", action="append", default=None,
                   choices=("none", "median", "trimmed-mean"))
    common(p)

    p = sub.add_parser("one-mode", help="classicality trend over box sizes")
    p.add_argument("--ks", default=None, help="comma-separated k schedule")
    common(p)

    p = sub.add_parser("entropy", help="joint-vs-marginal entropy probe")
    common(p)

    p = sub.add_parser("fidelity-check", help="metric cross-validation")
    p.add_argument("--beta-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--r-range", type=float, nargs=2, default=None,
                   metavar=("LO", "HI"))
    p.add_argument("--grid-points", type=int, default=None)
    p.add_argument("--h", type=float, default=None)
    common(p, sampling=False)
    return parser


def _resolve(args, config: dict, name: str, builtin):
    value = getattr(args, name, None)
    if value is None:
        value = config.get(name, builtin)
    return value


def _resolve_workers(args, config: dict) -> int:
    value = getattr(args, "workers", None)
    if value is None:
        value = config.get("workers")
    if value is None:
        raw = os.environ.get(ENV_WORKERS)
        if raw is not None:
            try:
                value = int(raw)
            except ValueError:
                raise UsageError(f"invalid {ENV_WORKERS} value {raw!r}")
    if value is None:
        value = 1
    if value < 1:
        raise UsageError("worker count must be at least 1")
    return value


def _progress_printer(label: str, total: int):
    t0 = time.perf_counter()
    state = {"last": 0.0}

    def cb(generated: int, accepted: int) -> None:
        now = time.perf_counter()
        if now - state["last"] < 0.5 and generated < total:
            return
        state["last"] = now
        rate = generated / max(now - t0, 1e-9)
        frac = accepted / generated if generated else 0.0
        print(
            f"{label}: {generated}/{total} samples, {rate:.0f}/s, "
            f"acceptance {frac:.5f}",
            file=sys.stderr,
        )

    return cb


def _format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _g17(value)


def _render(fields: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps(row) + "\n" for row in rows)
    cells = [[_format_cell(row[f]) for f in fields] for row in rows]
    if fmt == "csv":
        lines = [",".join(fields)] + [",".join(r) for r in cells]
        return "\n".join(lines) + "\n"
    widths = [
        max(len(fields[j]), max((len(r[j]) for r in cells), default=0))
        for j in range(len(fields))
    ]
    lines = ["  ".join(f.ljust(w) for f, w in zip(fields, widths))]
    for r in cells:
        lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)))
    return "\n".join(line.rstrip() for line in lines) + "\n"


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        sys.stdout.flush()
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _census_row(result: montecarlo.CensusResult) -> dict:
    cfg = result.config
    if result.accepted == 0:
        raise EmptyResultError(
            f"no samples accepted out of {result.generated}; increase --samples"
        )
    return {
        "k": cfg.k,
        "l": cfg.l,
        "samples": result.generated,
        "accepted": result.accepted,
        "separable": result.separable,
        "classical": result.classical,
        "prob_sep": result.prob_sep("fisher"),
        "prob_classical": result.prob_classical("fisher"),
        "seed": cfg.seed,
    }


def _cmd_table1(args, config) -> tuple[list[str], list[dict]]:
    scale = _resolve(args, config, "scale", 1.0)
    seed = _resolve(args, config, "seed", 1)
    workers = _resolve_workers(args, config)
    if not (scale > 0.0 and math.isfinite(scale)):
        raise UsageError(f"--scale must be positive and finite, got {scale!r}")
    rows = []
    for i, (k, l, full) in enumerate(TABLE1_ROWS):
        samples = max(1, int(round(full * scale)))
        cfg = SamplerConfig(k=k, l=l, samples=samples, seed=seed + i)
        progress = _progress_printer(f"row {i + 1} (k={k:g}, l={l:g})", samples)
        result = montecarlo.run_classical_census(cfg, workers=workers,
                                                 progress=progress)
        print(
            f"row {i + 1}: accepted {result.accepted}, "
            f"solver failures {result.solver_failures}, "
            f"{result.wall_time:.1f}s",
            file=sys.stderr,
        )
        rows.append(_census_row(result))
    return CENSUS_FIELDS, rows


def _cmd_census(args, config) -> tuple[list[str], list[dict]]:
    cfg = SamplerConfig(
        k=_resolve(args, config, "k", 10.0),
        l=_resolve(args, config, "l", 5.0),
        samples=_resolve(args, config, "samples", 100_000),
        seed=_resolve(args, config, "seed", 1),
    )
    workers = _resolve_workers(args, config)
    progress = _progress_printer("census", cfg.samples)
    result = montecarlo.run_classical_census(cfg, workers=workers,
                                             progress=progress)
    print(
        f"census: solver failures {result.solver_failures}, "
        f"{result.wall_time:.1f}s",
        file=sys.stderr,
    )
    return CENSUS_FIELDS, [_census_row(result)]


def _cmd_bures(args, config) -> tuple[list[str], list[dict]]:
    cfg = SamplerConfig(
        k=_resolve(args, config, "k", 15.0),
        l=_resolve(args, config, "l", 15.0),
        samples=_resolve(args, config, "samples", 100_000),
        seed=_resolve(args, config, "seed", 1),
    )
    workers = _resolve_workers(args, config)
    grid_size = _resolve(args, config, "grid_size", 5)
    n_grids = _resolve(args, config, "n_grids", 5)
    grid_range = _resolve(args, config, "grid_range", (-2.0, 2.0))
    metric = _resolve(args, config, "metric", None) or ["bures"]
    robust = _resolve(args, config, "robust", None) or ["median", "trimmed-mean"]
    volume_kinds = tuple(
        m.replace("-", "_") for m in dict.fromkeys(metric) if m != "fisher"
    )
    if "none" in robust:
        if len(robust) > 1:
            raise UsageError("--robust none excludes other robust choices")
        if n_grids != 1:
            raise UsageError("--robust none requires --n-grids 1")
        estimators = ("median",)
    else:
        estimators = tuple(
            r.replace("trimmed-mean", "trimmed_mean") for r in dict.fromkeys(robust)
        )
    progress = _progress_printer("bures census", cfg.samples)
    result = montecarlo.run_bures_census(
        cfg,
        grid_size=grid_size,
        n_grids=n_grids,
        grid_range=tuple(grid_range),
        metric_kinds=volume_kinds,
        estimators=estimators,
        workers=workers,
        progress=progress,
    )
    discard = result.discarded_grids / result.accepted if result.accepted else 0.0
    print(
        f"bures census: solver failures {result.solver_failures}, "
        f"discarded {result.discarded_grids} ({discard:.4f} of accepted), "
        f"numerical faults {result.numerical_faults}, "
        f"ordering faults {result.ordering_faults}, "
        f"{result.wall_time:.1f}s",
        file=sys.stderr,
    )
    if result.accepted - result.discarded_grids <= 0:
        raise EmptyResultError(
            f"no samples survived the grids ({result.accepted} accepted, "
            f"{result.discarded_grids} discarded); increase --samples"
        )
    rows = []
    names = ["fisher"] + [
        f"{kind}:{est}" for kind in volume_kinds for est in estimators
    ]
    for name in names:
        label = name.replace("_", "-") if "none" not in robust else (
            name.replace(":median", ":single").replace("_", "-")
        )
        rows.append({
            "measure": label,
            "k": cfg.k,
            "l": cfg.l,
            "samples": result.generated,
            "accepted": result.accepted,
            "discarded": result.discarded_grids,
            "separable": result.separable,
            "classical": result.classical,
            "prob_sep": result.prob_sep(name),
            "prob_classical": result.prob_classical(name),
            "seed": cfg.seed,
        })
    return BURES_FIELDS, rows


def _cmd_one_mode(args, config) -> tuple[list[str], list[dict]]:
    cfg = SamplerConfig(
        k=_resolve(args, config, "k", 10.0),
        l=_resolve(args, config, "l", 5.0),
        samples=_resolve(args, config, "samples", 200_000),
        seed=_resolve(args, config, "seed", 1),
        mode_count=1,
    )
    workers = _resolve_workers(args, config)
    ks = _resolve(args, config, "ks", None)
    if isinstance(ks, str):
        ks = _split_floats(ks)
    schedule = tuple(ks) if ks else None
    points = montecarlo.run_one_mode_classicality(cfg, ks=schedule,
                                                  workers=workers)
    rows = []
    for pt in points:
        rows.append({
            "k": pt.k,
            "l": pt.l,
            "samples": pt.samples,
            "physical": pt.physical,
            "classical": pt.classical,
            "prob_classical": pt.prob_classical,
            "stderr": pt.stderr,
            "seed": cfg.seed,
        })
    return ONE_MODE_FIELDS, rows


def _cmd_entropy(args, config) -> tuple[list[str], list[dict]]:
    cfg = SamplerConfig(
        k=_resolve(args, config, "k", 10.0),
        l=_resolve(args, config, "l", 5.0),
        samples=_resolve(args, config, "samples", 100_000),
        seed=_resolve(args, config, "seed", 1),
    )
    workers = _resolve_workers(args, config)
    report = montecarlo.run_entropy_probe(cfg, workers=workers)
    for index, matrix in zip(report.example_indices, report.examples):
        print(f"violation example, sample {index}:", file=sys.stderr)
        for line in criteria.format_disagreement(matrix, 0.0, 0.0).splitlines()[:4]:
            print(f"  {line}", file=sys.stderr)
    return ENTROPY_FIELDS, [{
        "samples": report.generated,
        "physical": report.physical,
        "separable": report.separable,
        "violations": report.violations,
        "seed": cfg.seed,
    }]


def _cmd_fidelity_check(args, config) -> tuple[list[str], list[dict]]:
    beta_range = _resolve(args, config, "beta_range", (2.0, 6.0))
    r_range = _resolve(args, config, "r_range", (0.1, 0.9))
    points = _resolve(args, config, "grid_points", 5)
    h = _resolve(args, config, "h", None)
    if points < 2:
        raise UsageError("--grid-points must be at least 2")
    betas = np.linspace(beta_range[0], beta_range[1], points)
    rs = np.linspace(r_range[0], r_range[1], points)
    entries = []
    for beta in betas:
        for r in rs:
            g = fidelity.metric_by_finite_difference(
                SqueezedThermalParams(beta=float(beta), r=float(r)), h=h
            )
            sqrt_det = math.sqrt(max(float(np.linalg.det(g)), 0.0))
            ratio = sqrt_det / (fidelity.marginal_f(r) * fidelity.marginal_g(beta))
            entries.append((float(beta), float(r), sqrt_det, ratio))
    ratios = np.array([e[3] for e in entries])
    spread = float((ratios.max() - ratios.min()) / ratios.mean())
    print(f"fidelity-check: global-constant relative spread {spread:.3e}",
          file=sys.stderr)
    rows = [
        {"beta": b, "r": r, "sqrt_det_g": s, "ratio": q, "spread": spread}
        for b, r, s, q in entries
    ]
    return FIDELITY_FIELDS, rows


_COMMANDS = {
    "table1": _cmd_table1,
    "census": _cmd_census,
    "bures": _cmd_bures,
    "one-mode": _cmd_one_mode,
    "entropy": _cmd_entropy,
    "fidelity-check": _cmd_fidelity_check,
}


def _dump_disagreement(exc: criteria.OracleDisagreementError,
                       out: str | None) -> str:
    directory = os.path.dirname(out) if out else ""
    path = os.path.join(directory, "oracle-disagreement.txt")
    text = criteria.format_disagreement(exc.matrix, exc.margin_sep,
                                        exc.margin_ppt)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return path


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config(args.config) if args.config else {}
        fmt = _resolve(args, config, "format", "csv")
        if fmt not in ("csv", "json", "table"):
            raise UsageError(f"unknown format {fmt!r}")
        out = _resolve(args, config, "out", None)
        handler = _COMMANDS[args.command]
        try:
            fields, rows = handler(args, config)
        except (ValueError, measures.GridDrawError) as exc:
            raise UsageError(str(exc))
    except UsageError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_USAGE
    except EmptyResultError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except criteria.OracleDisagreementError as exc:
        try:
            path = _dump_disagreement(exc, out)
        except OSError as io_exc:
            print(f"could not write disagreement dump: {io_exc}", file=sys.stderr)
            return EXIT_ORACLE
        print(f"{exc}; offending matrix written to {path}", file=sys.stderr)
        return EXIT_ORACLE
    try:
        _write_output(_render(fields, rows, fmt), out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
