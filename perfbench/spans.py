"""Spans around the calls the census program makes between its modules.

The program is not edited.  `Tracer.install` replaces module attributes
that the program looks up at call time (for example `criteria.classify`,
which `montecarlo` calls as `criteria.classify(...)`) with wrappers
that time each call, and `Tracer.remove` puts the originals back.

Spans are aggregated in memory per name: calls, total time, self time
(the span minus the time its child spans cover), and the calls that
raised, with their time and exception names.  Nesting is tracked with a
stack, so a span's parent is whichever traced call was open when it
started.  Tracing is meant for workers=1: spans in pool workers are not
seen.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import dataclass, field


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    raised_s: float = 0.0
    items: Counter = field(default_factory=Counter)
    exceptions: Counter = field(default_factory=Counter)
    parents: Counter = field(default_factory=Counter)


def _uniform_count(result) -> dict:
    return {"uniforms": int(result.size)}


def _census_counts(result) -> dict:
    return {"generated": result.generated, "accepted": result.accepted}


def targets():
    """(module, attribute, span name, item counter) for every traced call."""
    from gausscensus import cli, criteria, measures, montecarlo

    return [
        (cli, "main", "cli.main", None),
        (montecarlo, "run_classical_census", "montecarlo.census", _census_counts),
        (montecarlo, "run_bures_census", "montecarlo.census", _census_counts),
        (montecarlo, "substream_uniforms", "rng.substream", _uniform_count),
        (montecarlo, "grid_stream", "rng.grid_stream", None),
        (criteria, "classify", "criteria.classify", None),
        (criteria, "is_separable_ppt", "criteria.ppt", None),
        (criteria, "is_classical", "criteria.classical", None),
        (criteria, "is_physical", "states.physical", None),
        (criteria, "to_standard_form_one", "states.form_one", None),
        (criteria, "to_standard_form_two", "states.form_two", None),
        (measures, "robust_volume_multi", "measures.volume", None),
        (measures, "random_grid", "measures.grid_draw", None),
        (measures, "discretize", "measures.discretize", None),
        (measures, "log_volume_element", "measures.log_volume", None),
    ]


class Tracer:
    """Aggregated spans for the traced calls made while installed."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._open: list[list] = []  # [name, child seconds] per open span
        self._saved: list[tuple] = []

    def _wrap(self, fn, name, counter):
        stats = self.stats.setdefault(name, SpanStats())
        stack = self._open
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stats.parents[stack[-1][0] if stack else None] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                elapsed = clock() - t0
                stats.raised += 1
                stats.raised_s += elapsed
                stats.exceptions[type(exc).__name__] += 1
                raise
            else:
                elapsed = clock() - t0
                if counter is not None:
                    stats.items.update(counter(result))
                return result
            finally:
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - frame[1]

        return traced

    def install(self) -> None:
        for module, attr, name, counter in targets():
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, counter))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name, SpanStats())

    def as_dict(self) -> dict:
        return {
            name: {
                "calls": s.calls,
                "total_s": s.total_s,
                "self_s": s.self_s,
                "raised": s.raised,
                "raised_s": s.raised_s,
                "items": dict(s.items),
                "exceptions": dict(s.exceptions),
                "parents": {str(k): v for k, v in s.parents.items()},
            }
            for name, s in self.stats.items()
        }
