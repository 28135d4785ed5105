"""The benchmark's traced calls name attributes the program still has.

perfbench/spans.py wraps module attributes by name when the benchmark
runs with `--trace 1`, so a rename or deletion in src/ that drops one
of them breaks the traced run.  This test fails first.
"""

import importlib.util
import sys
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_traced_attribute_resolves(monkeypatch) -> None:
    # Loaded from its file without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    targets = spans.targets()
    assert targets
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in targets
               if not callable(getattr(module, attr, None))]
    assert missing == []
