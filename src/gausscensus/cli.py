"""Command line front end for the census drivers.

Standard output carries only machine-readable results (CSV, JSON lines,
or an aligned table); progress and diagnostics go to standard error.
Exit codes: 0 success, 1 I/O or empty-result failure, 2 oracle
disagreement, 64 usage or configuration error.  census, bures, one-mode
and entropy share the --k, --l, --samples, --seed and --workers flags,
and table1 takes --scale, --seed and --workers; one-mode draws 2x2
matrices from the box and the others 4x4, and each command refuses a
box where its own determinant could overflow.  Each setting's default
sits on its flag: a setting comes from its flag, else its --config line
(one line per key), else that default; the worker count falls back to
GAUSSCENSUS_WORKERS, then 1.  An empty --out is refused before any
sample is drawn.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import time

# The census's linear algebra runs on stacks of 2x2, 4x4 and 25x25
# matrices, which OpenBLAS never splits across threads; the worker
# thread it starts when it loads only spins on another core.  OpenBLAS
# reads this variable once, as it loads, so it is set before numpy (and
# scipy) load; a value the user set still wins, and pool workers
# inherit it.  The library modules leave threading alone.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

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


def _split_floats(text: str) -> list[float]:
    return [float(p) for p in text.replace(",", " ").split()]


def _config_value(action: argparse.Action, text: str, where: str):
    # One value as argparse reads it for the flag: type, then choices.
    flag = action.option_strings[0]
    try:
        value = action.type(text) if action.type else text
    except argparse.ArgumentTypeError as exc:
        raise UsageError(f"{where}: argument {flag}: {exc}")
    except ValueError:
        raise UsageError(f"{where}: argument {flag}: invalid {action.type.__name__} "
                         f"value: {text!r}")
    if action.choices is not None and value not in action.choices:
        choices = ", ".join(map(repr, action.choices))
        raise UsageError(f"{where}: argument {flag}: invalid choice: {value!r} "
                         f"(choose from {choices})")
    return value


def _load_config(path: str, command: str, keys: dict) -> dict:
    """Parse a key=value file through the command's own flags.

    keys maps each flag's dest to its Action, whether it takes a list (a
    pair or a repeated flag), written comma- or space-separated on one
    line, and its default.  Each key may appear once.  '#' starts a
    comment, blanks are skipped.
    """
    values, first = {}, {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, 1):
        where = f"{path}:{lineno}"
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{where}: expected key=value")
        key, _, text = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in keys:
            raise UsageError(f"{where}: unknown key {key!r} for {command}")
        if key in first:
            raise UsageError(f"{where}: key {key!r} repeated (first on line {first[key]})")
        first[key] = lineno
        action, many, _ = keys[key]
        texts = text.replace(",", " ").split() if many else [text.strip()]
        if not texts or action.nargs not in (None, len(texts)):
            raise UsageError(f"{where}: argument {action.option_strings[0]}: expected "
                             f"{action.nargs or 'one or more'} values, got {text.strip()!r}")
        value = [_config_value(action, t, where) for t in texts]
        values[key] = value if many else value[0]
    return values


def _output_path(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("output path is empty")
    return text


def _build_parser() -> _Parser:
    parser = _Parser(prog="gausscensus", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def command(name, help):
        # Each flag's dest is also its config key.  argparse gets no
        # default, so a flag left out is missing from the namespace (and a
        # repeated flag starts a fresh list); main fills in the default.
        p = sub.add_parser(name, help=help)
        keys = {}
        p.set_defaults(config_keys=keys)

        def flag(*names, default=None, **kw):
            action = p.add_argument(*names, default=argparse.SUPPRESS, **kw)
            keys[action.dest] = (action, "nargs" in kw or kw.get("action") == "append",
                                 default)
        return p, flag

    def common(p, flag, box=(10.0, 5.0, 100_000), sampling=True):
        # box is the command's default k, l and samples, or None.
        if box:
            flag("--k", type=float, default=box[0])
            flag("--l", type=float, default=box[1])
            flag("--samples", type=int, default=box[2])
        if sampling:
            flag("--seed", type=int, default=1)
            flag("--workers", type=int)  # None: GAUSSCENSUS_WORKERS, then 1
        flag("--out", type=_output_path)
        flag("--format", choices=("csv", "json", "table"), default="csv")
        p.add_argument("--config", default=None)

    p, flag = command("table1", "five-row census sweep")
    flag("--scale", type=float, default=1.0)
    common(p, flag, box=None)

    p, flag = command("census", "weighted separability census")
    common(p, flag)

    p, flag = command("bures", "volume-element census on random grids")
    flag("--grid-size", type=int, default=5)
    flag("--n-grids", type=int, default=5)
    flag("--grid-range", type=float, nargs=2, metavar=("LO", "HI"), default=(-2.0, 2.0))
    flag("--metric", action="append", choices=("fisher", "bures", "kubo-mori", "maximal"),
         default=["bures"])
    flag("--robust", action="append", choices=("none", "median", "trimmed-mean"),
         default=["median", "trimmed-mean"])
    common(p, flag, box=(15.0, 15.0, 100_000))

    p, flag = command("one-mode", "classicality trend over box sizes")
    flag("--ks", type=_split_floats, help="comma-separated k schedule")
    common(p, flag, box=(10.0, 5.0, 200_000))

    p, flag = command("entropy", "joint-vs-marginal entropy probe")
    common(p, flag)

    p, flag = command("fidelity-check", "metric cross-validation")
    flag("--beta-range", type=float, nargs=2, metavar=("LO", "HI"), default=(2.0, 6.0))
    flag("--r-range", type=float, nargs=2, metavar=("LO", "HI"), default=(0.1, 0.9))
    flag("--grid-points", type=int, default=5)
    flag("--h", type=float)
    common(p, flag, box=None, sampling=False)
    return parser


def _resolve_workers(value: int | None) -> int:
    # The merged flag or config value, else the environment, else 1.
    if value is None:
        raw = os.environ.get(ENV_WORKERS, "1")
        try:
            value = int(raw)
        except ValueError:
            raise UsageError(f"invalid {ENV_WORKERS} value {raw!r}")
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
    if isinstance(value, (int, np.integer)):  # bool is an int too
        return str(int(value))
    return f"{float(value):.17g}"


def _render(fields: list[str], rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return "".join(json.dumps({f: row[f] for f in fields}) + "\n" for row in rows)
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


def _census_row(result: montecarlo.CensusResult, measure: str = "fisher",
                budget: str = "--samples") -> dict:
    # One census's row under one measure, for every command that prints
    # a census; _render picks the command's own fields from it.  budget
    # is the flag that raises the command's sample count.
    cfg = result.config
    if result.accepted == 0:
        raise EmptyResultError(
            f"no samples accepted out of {result.generated}; increase {budget}"
        )
    return {
        "k": cfg.k,
        "l": cfg.l,
        "samples": result.generated,
        "accepted": result.accepted,
        "separable": result.separable,
        "classical": result.classical,
        "prob_sep": result.prob_sep(measure),
        "prob_classical": result.prob_classical(measure),
        "seed": cfg.seed,
    }


def _cmd_table1(args) -> tuple[list[str], list[dict]]:
    scale, seed = args.scale, args.seed
    if not (scale > 0.0 and math.isfinite(scale)):
        raise UsageError(f"--scale must be positive and finite, got {scale!r}")
    last = 2**64 - len(TABLE1_ROWS)
    if seed > last:
        raise UsageError(f"table1 rows use seeds {seed} to {seed + len(TABLE1_ROWS) - 1}, "
                         f"which must fit in an unsigned 64-bit integer; "
                         f"--seed must be at most {last}")
    cfgs = [SamplerConfig(k=k, l=l, samples=max(1, int(round(full * scale))), seed=seed + i)
            for i, (k, l, full) in enumerate(TABLE1_ROWS)]
    progress = [_progress_printer(f"row {i + 1} (k={cfg.k:g}, l={cfg.l:g})", cfg.samples)
                for i, cfg in enumerate(cfgs)]
    rows = []
    # One pool runs the blocks of every row; an empty row closes the sweep
    # and cancels the blocks still pending.
    sweep = montecarlo.run_classical_sweep(cfgs, workers=args.workers, progress=progress)
    with contextlib.closing(sweep):
        for i, result in enumerate(sweep):
            print(
                f"row {i + 1}: accepted {result.accepted}, "
                f"solver failures {result.solver_failures}, "
                f"{result.wall_time:.1f}s",
                file=sys.stderr,
            )
            rows.append(_census_row(result, budget="--scale"))
    return CENSUS_FIELDS, rows


def _sampler_config(args) -> SamplerConfig:
    return SamplerConfig(k=args.k, l=args.l, samples=args.samples, seed=args.seed)


def _cmd_census(args) -> tuple[list[str], list[dict]]:
    cfg = _sampler_config(args)
    progress = _progress_printer("census", cfg.samples)
    result = montecarlo.run_classical_census(cfg, workers=args.workers,
                                             progress=progress)
    print(
        f"census: solver failures {result.solver_failures}, "
        f"{result.wall_time:.1f}s",
        file=sys.stderr,
    )
    return CENSUS_FIELDS, [_census_row(result)]


def _cmd_bures(args) -> tuple[list[str], list[dict]]:
    cfg = _sampler_config(args)
    robust = list(dict.fromkeys(args.robust))
    volume_kinds = tuple(
        m.replace("-", "_") for m in dict.fromkeys(args.metric) if m != "fisher"
    )
    if "none" in robust:
        if len(robust) > 1:
            raise UsageError("--robust none excludes other robust choices")
        if args.n_grids != 1:
            raise UsageError("--robust none requires --n-grids 1")
        estimators = ("median",)
    else:
        estimators = tuple(r.replace("trimmed-mean", "trimmed_mean") for r in robust)
    progress = _progress_printer("bures census", cfg.samples)
    result = montecarlo.run_bures_census(
        cfg,
        grid_size=args.grid_size,
        n_grids=args.n_grids,
        grid_range=tuple(args.grid_range),
        metric_kinds=volume_kinds,
        estimators=estimators,
        workers=args.workers,
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
    for name in result.measure_names():
        label = name.replace("_", "-") if "none" not in robust else (
            name.replace(":median", ":single").replace("_", "-")
        )
        rows.append(dict(_census_row(result, name), measure=label,
                         discarded=result.discarded_grids))
    return BURES_FIELDS, rows


def _cmd_one_mode(args) -> tuple[list[str], list[dict]]:
    cfg = _sampler_config(args)
    progress = _progress_printer("one-mode", cfg.samples)
    points = montecarlo.run_one_mode_classicality(cfg, ks=args.ks, workers=args.workers,
                                                  progress=progress)
    return ONE_MODE_FIELDS, [dict(dataclasses.asdict(pt), seed=cfg.seed) for pt in points]


def _cmd_entropy(args) -> tuple[list[str], list[dict]]:
    cfg = _sampler_config(args)
    progress = _progress_printer("entropy", cfg.samples)
    report = montecarlo.run_entropy_probe(cfg, workers=args.workers, progress=progress)
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


def _cmd_fidelity_check(args) -> tuple[list[str], list[dict]]:
    points = args.grid_points
    if points < 2:
        raise UsageError("--grid-points must be at least 2")
    for flag, (lo, hi) in (("--beta-range", args.beta_range), ("--r-range", args.r_range)):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise UsageError(f"{flag} must be finite, got {lo!r} {hi!r}")
    betas = np.linspace(*args.beta_range, points).tolist()
    rs = np.linspace(*args.r_range, points).tolist()
    entries = []
    for beta in betas:
        for r in rs:
            try:
                # The marginals overflow at a far smaller beta than the
                # steps do, so they go first and name the cause.
                marginal = fidelity.marginal_f(r) * fidelity.marginal_g(beta)
                g = fidelity.metric_by_finite_difference(
                    SqueezedThermalParams(beta=beta, r=r), h=args.h
                )
                sqrt_det = math.sqrt(max(float(np.linalg.det(g)), 0.0))
                ratio = sqrt_det / marginal
            except (OverflowError, fidelity.StepError) as exc:
                raise UsageError(f"fidelity-check at beta={beta!r}, r={r!r}: {exc}")
            entries.append((beta, r, sqrt_det, ratio))
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
        keys = args.config_keys
        config = _load_config(args.config, args.command, keys) if args.config else {}
        # Every setting once: its flag, else its config line, else its default.
        defaults = {key: default for key, (_, _, default) in keys.items()}
        args = argparse.Namespace(**(defaults | config | vars(args)))
        if "workers" in keys:
            args.workers = _resolve_workers(args.workers)
        try:
            fields, rows = _COMMANDS[args.command](args)
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
            path = _dump_disagreement(exc, args.out)
        except OSError as io_exc:
            print(f"could not write disagreement dump: {io_exc}", file=sys.stderr)
            return EXIT_ORACLE
        print(f"{exc}; offending matrix written to {path}", file=sys.stderr)
        return EXIT_ORACLE
    try:
        _write_output(_render(fields, rows, args.format), args.out)
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
