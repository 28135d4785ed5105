#!/usr/bin/env python3
"""Census benchmark: throughput, CPU, memory and set-up time, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads:

  table1-cli      the paper's five-row Jeffreys sweep, run as a user runs
                  it: `python -m gausscensus.cli table1 --scale 0.02
                  --seed 100 --workers 2` in a fresh process per round;
  jeffreys-15-15  `montecarlo.run_classical_census`, k = l = 15, in-process
                  at workers=1, four census calls of 262,144 samples;
  bures-15-15     `montecarlo.run_bures_census`, k = l = 15, metrics bures,
                  kubo_mori and maximal, median and trimmed-mean estimators,
                  in-process at workers=1, sixteen calls of 32,768 samples.

A run first times `setup_s`, then repeats whole rounds of the workload
for about `--seconds`, and only then checks every census row against
the eigenvalue census in `oracle.py`.  The time of a round is the sum,
over its calls, of each call's median time over the rounds, so that a
burst of load that slows one round moves it little.  The times of the
in-process workloads and of `setup_s` are then paced: rescaled by the
reference kernel of `pace.py`, timed between the calls, to the machine
speed `pace.REFERENCE_S` stands for (see `pace_factor`).  One census
call (one CSV row) is one operation; it fails when it raises, exits
non-zero, or fails its check.  The last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1`.  `correct` is
false when a check fails for a reason other than the known Newton fault
(see `oracle.NEWTON_FAULT`) or a determinism check fails.  A report with
every problem and span is written under perfbench/out/.

`--workload all` runs the three workloads one after another, each in its
own process, and prints one JSON line per workload.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

WORKLOADS = ("table1-cli", "jeffreys-15-15", "bures-15-15")

SETUP_REPEATS = 5
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150.0

# The paper's five-row sweep (k, l, full sample count), at a fixed
# scale and seed: the k=500 row fails on every input (see oracle.py), so
# the sweep is kept on inputs that do not depend on --seed.
TABLE1_ROWS = (
    (10.0, 5.0, 500_000),
    (500.0, 250.0, 1_900_000),
    (20.0, 10.0, 5_200_000),
    (30.0, 20.0, 8_100_000),
    (15.0, 15.0, 10_000_000),
)
TABLE1_SCALE = 0.02
TABLE1_SEED = 100

JEFFREYS_CALLS, JEFFREYS_SAMPLES = 4, 262_144
BURES_CALLS, BURES_SAMPLES = 16, 32_768
BURES_METRICS = ("bures", "kubo_mori", "maximal")
BURES_ESTIMATORS = ("median", "trimmed_mean")
WARMUP_SAMPLES = 4096

_ROW_LINE = re.compile(r"^row (\d+): accepted (\d+), solver failures (\d+)", re.M)


# ----------------------------------------------------------------- results


@dataclass
class Operation:
    """One census call and what its check found."""

    label: str
    problems: list = field(default_factory=list)
    known_fault: bool = False

    @property
    def failed(self) -> bool:
        return bool(self.problems)


@dataclass
class Round:
    """One round of a workload: wall and CPU seconds and what it returned.

    `call_wall_s` and `call_cpu_s` hold the times of the round's census
    calls, one entry per call (one for the whole CLI process), and
    `call_ref_s` the reference kernel's time after each in-process call.
    """

    call_wall_s: list
    call_cpu_s: list
    samples: int
    outputs: list  # one entry per operation: a row dict, a result, or an exception
    fingerprint: object
    call_ref_s: list = field(default_factory=list)
    traced: bool = False
    peak_rss_kb: int = 0  # of a child process; in-process rounds leave it 0


# ----------------------------------------------------------- child processes


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(argv: list[str], name: str):
    """Run a child to its end; return (exit code, wall s, rusage, stdout, stderr).

    The rusage comes from wait4 and covers the child and every process it
    waited for, so pool workers count in its CPU time and peak RSS.
    """
    OUT.mkdir(exist_ok=True)
    out_path, err_path = OUT / f"{name}.stdout", OUT / f"{name}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=_child_env())
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage, out_path.read_bytes(),
            err_path.read_text(encoding="utf-8", errors="replace"))


def measure_setup_s() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing gausscensus.cli.

    Returns the median over the imports, paced and plain (see `pace_factor`).
    """
    from pace import reference_s

    argv = [sys.executable, "-c", "import gausscensus.cli"]
    times, refs = [], []
    for i in range(SETUP_REPEATS + 1):
        code, wall, _, _, err = run_child(argv, "setup")
        if code != 0:
            raise RuntimeError(f"import gausscensus.cli exited {code}: {err[-400:]}")
        refs.append(reference_s())
        if i:  # the first import writes the bytecode caches
            times.append(wall)
    setup_s = statistics.median(times)
    return setup_s * pace_factor(refs), setup_s


def measure_import_s() -> dict:
    """Median cumulative import seconds from `python -X importtime`."""
    argv = [sys.executable, "-X", "importtime", "-c", "import gausscensus.cli"]
    wanted = {"gausscensus.states": "states.import_s",
              "gausscensus.fidelity": "fidelity.import_s",
              "gausscensus.cli": "cli.import_s"}
    samples = {metric: [] for metric in wanted.values()}
    run_child(argv, "importtime")  # writes the bytecode caches
    for _ in range(IMPORTTIME_REPEATS):
        code, _, _, _, err = run_child(argv, "importtime")
        if code != 0:
            raise RuntimeError(f"import gausscensus.cli exited {code}")
        for line in err.splitlines():
            parts = [p.strip() for p in line.removeprefix("import time:").split("|")]
            if len(parts) == 3 and parts[2] in wanted:
                samples[wanted[parts[2]]].append(int(parts[1]) * 1e-6)
    return {metric: statistics.median(v) for metric, v in samples.items()}


# ---------------------------------------------------------------- workloads


def census_seeds(seed: int, calls: int) -> list[int]:
    """Distinct census seeds for the calls of one round, drawn from --seed."""
    import numpy as np

    state = np.random.SeedSequence(seed).generate_state(calls, np.uint64)
    return [int(s) for s in state]


class Table1Cli:
    name = "table1-cli"

    def __init__(self, seed: int):
        self.rows = [
            dict(k=k, l=l, samples=max(1, int(round(full * TABLE1_SCALE))),
                 seed=TABLE1_SEED + i)
            for i, (k, l, full) in enumerate(TABLE1_ROWS)
        ]
        self.samples = sum(r["samples"] for r in self.rows)
        self.labels = [f"table1 k={r['k']:g} l={r['l']:g} seed={r['seed']}"
                       for r in self.rows]

    def _argv(self, workers: int) -> list[str]:
        return ["table1", "--scale", repr(TABLE1_SCALE), "--seed", str(TABLE1_SEED),
                "--workers", str(workers)]

    def _parse(self, code: int, csv_bytes: bytes, err: str) -> list:
        if code != 0:
            failure = RuntimeError(f"gausscensus table1 exited {code}: {err.strip()[-300:]}")
            return [failure] * len(self.rows)
        failures = {int(m[1]): int(m[3]) for m in _ROW_LINE.finditer(err)}
        outputs = []
        records = list(csv.DictReader(io.StringIO(csv_bytes.decode())))
        if len(records) != len(self.rows):
            failure = RuntimeError(f"table1 printed {len(records)} rows, not {len(self.rows)}")
            return [failure] * len(self.rows)
        for i, rec in enumerate(records):
            row = {key: float(rec[key]) for key in ("k", "l", "prob_sep", "prob_classical")}
            row.update({key: int(rec[key]) for key in
                        ("samples", "accepted", "separable", "classical", "seed")})
            row["solver_failures"] = failures.get(i + 1, 0)
            outputs.append(row)
        return outputs

    def warm_up(self) -> None:
        pass

    def run_round(self) -> Round:
        argv = [sys.executable, "-m", "gausscensus.cli"] + self._argv(workers=2)
        code, wall, usage, out, err = run_child(argv, self.name)
        return Round(call_wall_s=[wall], call_cpu_s=[usage.ru_utime + usage.ru_stime],
                     samples=self.samples, outputs=self._parse(code, out, err),
                     fingerprint=out if code == 0 else None,
                     peak_rss_kb=usage.ru_maxrss)

    def run_in_process(self, traced: bool) -> Round:
        """The same sweep through `cli.main` at workers=1, for tracing."""
        from gausscensus import cli

        out, err = io.StringIO(), io.StringIO()
        t0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self._argv(workers=1))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        csv_bytes = out.getvalue().encode()
        return Round(call_wall_s=[wall], call_cpu_s=[cpu], samples=self.samples,
                     outputs=self._parse(code, csv_bytes, err.getvalue()),
                     fingerprint=csv_bytes if code == 0 else None, traced=traced)

    def references(self, tol) -> list:
        from oracle import eigen_census

        return [eigen_census(r["k"], r["l"], r["samples"], r["seed"], tol)
                for r in self.rows]

    def check(self, output, ref, label: str) -> Operation:
        from oracle import check_jeffreys

        if isinstance(output, BaseException):
            return Operation(label, [repr(output)])
        problems, known = check_jeffreys(output, ref)
        return Operation(label, problems, known)


class InProcess:
    """Census calls made in this process at workers=1."""

    calls = samples_per_call = 0

    def __init__(self, seed: int):
        self.seeds = census_seeds(seed, self.calls)
        self.samples = self.samples_per_call * len(self.seeds)
        self.labels = [f"{self.name} seed={s}" for s in self.seeds]

    def call(self, samples: int, seed: int):
        raise NotImplementedError

    def warm_up(self) -> None:
        self.call(WARMUP_SAMPLES, self.seeds[0])

    def run_round(self, traced: bool = False) -> Round:
        from pace import reference_s

        outputs, walls, cpus, refs = [], [], [], []
        for seed in self.seeds:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                outputs.append(self.call(self.samples_per_call, seed))
            except Exception as exc:  # a failed operation, reported by the check
                outputs.append(exc)
            walls.append(time.perf_counter() - t0)
            cpus.append(time.process_time() - c0)
            refs.append(reference_s())
        return Round(call_wall_s=walls, call_cpu_s=cpus, call_ref_s=refs,
                     samples=self.samples, outputs=outputs,
                     fingerprint=[_fingerprint(o) for o in outputs], traced=traced)

    def references(self, tol) -> list:
        from oracle import eigen_census

        return [eigen_census(15.0, 15.0, self.samples_per_call, s, tol)
                for s in self.seeds]


def _fingerprint(result) -> object:
    if isinstance(result, BaseException):
        return repr(result)
    return (
        result.generated, result.accepted, result.separable, result.classical,
        result.discarded_grids, result.solver_failures, result.numerical_faults,
        result.ordering_faults,
        tuple((n, result.prob_sep(n).hex(), result.prob_classical(n).hex())
              for n in result.measure_names()),
    )


def _census_row(result) -> dict:
    cfg = result.config
    return dict(k=cfg.k, l=cfg.l, samples=result.generated, seed=cfg.seed,
                accepted=result.accepted, separable=result.separable,
                classical=result.classical, prob_sep=result.prob_sep(),
                prob_classical=result.prob_classical(),
                solver_failures=result.solver_failures)


class Jeffreys(InProcess):
    name = "jeffreys-15-15"
    calls, samples_per_call = JEFFREYS_CALLS, JEFFREYS_SAMPLES

    def call(self, samples: int, seed: int):
        from gausscensus import montecarlo

        cfg = montecarlo.SamplerConfig(k=15.0, l=15.0, samples=samples, seed=seed)
        return montecarlo.run_classical_census(cfg, workers=1)

    def check(self, output, ref, label: str) -> Operation:
        from oracle import check_jeffreys

        if isinstance(output, BaseException):
            return Operation(label, [repr(output)])
        problems, known = check_jeffreys(_census_row(output), ref)
        return Operation(label, problems, known)


class Bures(InProcess):
    name = "bures-15-15"
    calls, samples_per_call = BURES_CALLS, BURES_SAMPLES

    def call(self, samples: int, seed: int):
        from gausscensus import montecarlo

        cfg = montecarlo.SamplerConfig(k=15.0, l=15.0, samples=samples, seed=seed)
        return montecarlo.run_bures_census(
            cfg, metric_kinds=BURES_METRICS, estimators=BURES_ESTIMATORS, workers=1)

    def check(self, output, ref, label: str) -> Operation:
        from oracle import check_bures

        if isinstance(output, BaseException):
            return Operation(label, [repr(output)])
        return Operation(label, check_bures(output, ref))


def make_workload(name: str, seed: int):
    return {"table1-cli": Table1Cli, "jeffreys-15-15": Jeffreys,
            "bures-15-15": Bures}[name](seed)


# ------------------------------------------------------------------ metrics


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def _median_round(times: list[list[float]]) -> float:
    """A round's time built from each call's median over the rounds."""
    return sum(statistics.median(per_call) for per_call in zip(*times))


def pace_factor(refs: list[float]) -> float:
    """The factor that rescales the times of a run to the reference speed.

    It is `REFERENCE_S` over the mean reference time of the run, or 1
    when the run timed no reference.  The CLI workload times none: its
    pool workers run on both cores, and the reference kernel, run on one
    core between CLI processes, did not follow their speed (pacing
    widened its spread over ten seeds from 0.05 to 0.09; README.md).
    """
    from pace import REFERENCE_S

    return REFERENCE_S / statistics.fmean(refs) if refs else 1.0


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_kb: int, pace: float) -> dict:
    """The end-to-end metrics, with the round times multiplied by `pace`."""
    samples = rounds[0].samples
    wall = _median_round([r.call_wall_s for r in rounds]) * pace
    cpu = _median_round([r.call_cpu_s for r in rounds]) * pace
    return {
        "setup_s": _metric(setup_s, "s"),
        "samples_per_s": _metric(samples / wall, "1/s"),
        "cpu_s_per_msample": _metric(cpu / samples * 1e6, "s/Msample"),
        "peak_rss_mb": _metric(peak_rss_kb / 1024.0, "MB"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, traced: list[Round], untraced: list[Round], imports: dict,
              cli_rows: int) -> dict:
    n = len(traced)
    g = tracer.get

    def per_round(x):
        return x / n

    census = g("montecarlo.census")
    classify = g("criteria.classify")
    form_two = g("states.form_two")
    kernels = g("measures.discretize")
    traced_wall = _median_round([r.call_wall_s for r in traced])
    untraced_wall = _median_round([r.call_wall_s for r in untraced])
    s, c = "s/round", "count/round"
    metrics = {
        "rng.substream_s": _metric(per_round(g("rng.substream").total_s), s),
        "rng.uniforms": _metric(per_round(g("rng.substream").items["uniforms"]), c),
        "rng.grid_stream_s": _metric(per_round(g("rng.grid_stream").total_s), s),
        "rng.grid_streams": _metric(per_round(g("rng.grid_stream").calls), c),
        "montecarlo.self_s": _metric(per_round(census.self_s), s),
        "montecarlo.blocks": _metric(per_round(g("rng.substream").calls), c),
        "montecarlo.candidates": _metric(per_round(classify.calls), c),
        "montecarlo.accepted": _metric(per_round(census.items["accepted"]), c),
        "montecarlo.accept_ratio": _metric(
            _ratio(census.items["accepted"], classify.calls), "ratio"),
        "criteria.classify_calls": _metric(per_round(classify.calls), c),
        "criteria.self_s": _metric(per_round(classify.self_s), s),
        "criteria.ppt_s": _metric(per_round(g("criteria.ppt").total_s), s),
        "criteria.classical_s": _metric(per_round(g("criteria.classical").total_s), s),
        "states.physical_s": _metric(per_round(g("states.physical").total_s), s),
        "states.form_one_s": _metric(per_round(g("states.form_one").total_s), s),
        "states.form_two_s": _metric(per_round(form_two.total_s), s),
        "states.form_two_calls": _metric(per_round(form_two.calls), c),
        "states.form_two_failures": _metric(per_round(form_two.raised), c),
        "states.form_two_failed_s": _metric(per_round(form_two.raised_s), s),
        "states.form_two_ok_ratio": _metric(
            _ratio(form_two.calls - form_two.raised, form_two.calls), "ratio"),
        "measures.volume_s": _metric(per_round(g("measures.volume").total_s), s),
        "measures.grid_draw_s": _metric(per_round(g("measures.grid_draw").total_s), s),
        "measures.discretize_s": _metric(per_round(kernels.total_s), s),
        "measures.log_volume_s": _metric(per_round(g("measures.log_volume").total_s), s),
        "measures.kernels": _metric(per_round(kernels.calls), c),
        "measures.kernels_rejected": _metric(per_round(kernels.raised), c),
        "measures.kernel_ok_ratio": _metric(
            _ratio(kernels.calls - kernels.raised, kernels.calls), "ratio"),
        "measures.samples_discarded": _metric(per_round(g("measures.volume").raised), c),
        "cli.self_s": _metric(per_round(g("cli.main").self_s), s),
        "cli.rows": _metric(per_round(cli_rows), c),
        "trace.overhead": _metric(traced_wall / untraced_wall - 1.0, "ratio"),
    }
    for name, value in imports.items():
        metrics[name] = _metric(value, "s")
    return metrics


# --------------------------------------------------------------------- runs


def _check_rounds(work, rounds: list[Round], tol) -> tuple[list[Operation], list[str]]:
    """Check every operation of every round; return them and determinism faults."""
    from oracle import UniformMismatch

    operations, faults = [], []
    try:
        refs = work.references(tol)
    except UniformMismatch as exc:
        faults.append(str(exc))
        operations = [Operation(f"round {i} {label}", [f"no reference: {exc}"])
                      for i in range(len(rounds)) for label in work.labels]
        return operations, faults
    for i, rnd in enumerate(rounds):
        for output, ref, label in zip(rnd.outputs, refs, work.labels):
            operations.append(work.check(output, ref, f"round {i} {label}"))
        if rnd.fingerprint != rounds[0].fingerprint:
            kind = "traced" if rnd.traced else "untraced"
            faults.append(f"round {i} ({kind}) differs from round 0")
    return operations, faults


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from gausscensus.tolerances import DEFAULT

    work = make_workload(workload, seed)
    report = {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace}
    rounds: list[Round] = []
    if not trace:
        setup_s, plain_setup_s = measure_setup_s()
        work.warm_up()
        start = time.perf_counter()
        rounds.append(work.run_round())
        # Another round starts only if it should end less than half a round
        # past --seconds, so that a run lasts about --seconds on average.
        while (elapsed := time.perf_counter() - start) + elapsed / len(rounds) / 2 < seconds:
            rounds.append(work.run_round())
        # A child's peak for the CLI; this process's own for in-process calls,
        # read before the oracle allocates anything.
        peak_kb = (max(r.peak_rss_kb for r in rounds) if isinstance(work, Table1Cli)
                   else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        factor = pace_factor([ref for r in rounds for ref in r.call_ref_s])
        metrics = end_to_end(rounds, setup_s, peak_kb, factor)
        report["plain_metrics"] = end_to_end(rounds, plain_setup_s, peak_kb, 1.0)
    else:
        from spans import Tracer

        imports = measure_import_s()
        if isinstance(work, Table1Cli):
            # The workers=2 CSV from a fresh process is the reference that
            # every in-process workers=1 round, traced or not, must equal.
            rounds.append(work.run_round())
            step = work.run_in_process
        else:
            step = work.run_round
        work.warm_up()
        tracer = Tracer()
        deadline = time.perf_counter() + seconds
        while (len(rounds) < 2 + isinstance(work, Table1Cli)
               or time.perf_counter() < deadline):
            traced = len(rounds) % 2 == 1
            if traced:
                with tracer:
                    rounds.append(step(traced=True))
            else:
                rounds.append(step(traced=False))
        in_process = rounds[1:] if isinstance(work, Table1Cli) else rounds
        traced_rounds = [r for r in in_process if r.traced]
        cli_rows = sum(len(r.outputs) for r in traced_rounds
                       if isinstance(work, Table1Cli))
        metrics = per_layer(tracer, traced_rounds,
                            [r for r in in_process if not r.traced], imports, cli_rows)
        report["spans"] = tracer.as_dict()
    operations, faults = _check_rounds(work, rounds, DEFAULT)
    unexplained = [op for op in operations if op.failed and not op.known_fault]
    result = {
        "correct": not unexplained and not faults,
        "attempted": len(operations),
        "failed": sum(op.failed for op in operations),
        "metrics": metrics,
    }
    report.update(result)
    report["rounds"] = [{"call_wall_s": r.call_wall_s, "call_cpu_s": r.call_cpu_s,
                         "call_ref_s": r.call_ref_s,
                         "samples": r.samples,
                         "traced": r.traced} for r in rounds]
    report["determinism_faults"] = faults
    report["failed_operations"] = [
        {"label": op.label, "known_fault": op.known_fault, "problems": op.problems}
        for op in operations if op.failed
    ]
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    _summarize(report, path)
    return result


def _summarize(report: dict, path: Path) -> None:
    err = sys.stderr
    print(f"{report['workload']}: {len(report['rounds'])} rounds, "
          f"{report['attempted']} operations, {report['failed']} failed, "
          f"correct={report['correct']}", file=err)
    seen = set()
    for op in report["failed_operations"]:
        key = op["label"].split(" ", 2)[2]
        if key in seen:
            continue
        seen.add(key)
        tag = "known fault" if op["known_fault"] else "FAILED"
        print(f"  {tag}: {key}: " + "; ".join(op["problems"]), file=err)
    for fault in report["determinism_faults"]:
        print(f"  NOT DETERMINISTIC: {fault}", file=err)
    plain_metrics = report.get("plain_metrics", {})
    for name, m in report["metrics"].items():
        line = f"  {name:28s} {m['value']:.6g} {m['unit']}"
        if name in plain_metrics and plain_metrics[name] != m:
            line += f" (not paced: {plain_metrics[name]['value']:.6g})"
        print(line, file=err)
    print(f"  report: {path.relative_to(ROOT)}", file=err)


def run_all(args) -> int:
    """Each workload in its own process, one JSON line each."""
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}", file=sys.stderr)
            status = 1
            continue
        print(json.dumps({"workload": name, **json.loads(lines[-1])}), flush=True)
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if not (SRC / "gausscensus" / "__init__.py").is_file():
        print(f"no gausscensus package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path[:0] = [str(SRC), str(BENCH)]
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
