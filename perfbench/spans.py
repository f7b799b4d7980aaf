"""Spans recorded by the benchmark around its calls into betadim's layers.

Spans are kept in memory.  The benchmark opens them one at a time, never
nested, so a span's time is all its layer's own.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    layer: str
    kind: str
    start: float
    end: float = 0.0
    failed: bool = False
    units: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []

    @contextmanager
    def span(self, layer: str, kind: str):
        sp = Span(layer, kind, perf_counter())
        self.spans.append(sp)
        try:
            yield sp
        except Exception:
            sp.failed = True
            raise
        finally:
            sp.end = perf_counter()
