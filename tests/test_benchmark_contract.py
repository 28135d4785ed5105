"""The benchmark still reads what the program writes.

perfbench/spans.py wraps module attributes by name when the benchmark
runs with `--trace 1`, so a rename or deletion in src/ that drops one
of them breaks the traced run, and a call that bypasses the attribute
reads 0 seconds in its span.  perfbench/run.py reads each table1
row's solver failures from the CLI's per-row stderr line, so a change
to that line's format loses them.  These tests fail first.
"""

import csv
import importlib.util
import io
import sys
from pathlib import Path

import numpy as np

from gausscensus import cli, criteria, montecarlo
from gausscensus.tolerances import DEFAULT

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(monkeypatch, name: str):
    # Loaded from its file without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_attribute_resolves(monkeypatch) -> None:
    spans = _load(monkeypatch, "spans")
    targets = spans.targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_census_block_draws_through_the_module_attribute(monkeypatch) -> None:
    # The rng.substream span wraps montecarlo.substream_uniforms: a block
    # that reached the Philox kernel some other way would time nothing.
    calls = []
    real = montecarlo.substream_uniforms

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(montecarlo, "substream_uniforms", counted)
    montecarlo._census_block(montecarlo.SamplerConfig(15.0, 15.0, 4096, 11), 0, 4096, ())
    assert len(calls) == 1


def test_table1_row_lines_match_the_csv(monkeypatch, capsys) -> None:
    row_line = _load(monkeypatch, "run")._ROW_LINE
    assert cli.main(["table1", "--scale", "0.002"]) == 0
    captured = capsys.readouterr()
    records = list(csv.DictReader(io.StringIO(captured.out)))
    matches = row_line.findall(captured.err)
    assert [int(row) for row, _, _ in matches] == list(range(1, len(cli.TABLE1_ROWS) + 1))
    assert [int(accepted) for _, accepted, _ in matches] == [int(r["accepted"]) for r in records]


def test_classify_solves_form_two_through_the_module_attribute(monkeypatch) -> None:
    # The states.form_two span wraps criteria.to_standard_form_two: a
    # classify pass that reached the Newton some other way would time
    # nothing there.
    calls = []
    real = criteria.to_standard_form_two

    def counted(f1, *args, **kwargs):
        calls.append(f1.n.size)
        return real(f1, *args, **kwargs)

    monkeypatch.setattr(criteria, "to_standard_form_two", counted)
    _, M = montecarlo._candidates(11, 0, 4096, 15.0, 15.0, DEFAULT)
    verdict = criteria.classify(M)
    # One pass per stack: one solve that carries every physical lane.
    assert calls == [np.count_nonzero(verdict.physical)]
    assert calls[0] > 0
