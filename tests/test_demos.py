"""Every demo script prints, byte for byte, its golden output.

Each demo runs in a fresh interpreter with this checkout's src/ first
on its path.  The goldens in tests/golden/demos/ are the demos' stdout;
a change that means to alter a demo's output replaces its golden file
and says why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import gausscensus

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden" / "demos"
DEMOS = sorted(p.stem for p in (ROOT / "demos").glob("*.py"))


def test_every_demo_has_a_golden() -> None:
    assert DEMOS == sorted(p.stem for p in GOLDEN.glob("*.txt"))


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_golden(name: str) -> None:
    src = str(Path(gausscensus.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr.decode(errors="replace")
    assert proc.stdout == (GOLDEN / f"{name}.txt").read_bytes()
