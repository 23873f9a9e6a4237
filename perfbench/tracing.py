"""Spans around the benchmark's calls into the library's public functions.

Every call a job makes into a layer goes through a :class:`Tracer` by the
layer function's dotted name, ``"<module>.<function>"``.  With tracing off
the tracer only calls the function.  With tracing on it records one span per
call -- job, name, start, end, and the bit-length of the result -- and keeps
the spans in memory until the run is summarised.  The calls never nest:
each span is one call the benchmark made, so a span's time is its self time.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from results import max_bits


@dataclass(frozen=True)
class Span:
    pass_index: int
    job: str
    name: str
    start: float
    end: float
    bits: int


def layer(name: str) -> str:
    """The module part of a dotted layer-function name."""
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self, funcs: dict[str, Callable], enabled: bool):
        self.funcs = funcs
        self.enabled = enabled
        self.pass_index = 0
        self.job = ""
        self.spans: list[Span] = []
        # (pass index, module) -> calls that raised
        self.raised: Counter[tuple[int, str]] = Counter()

    def __call__(self, name: str, *args):
        fn = self.funcs[name]
        if not self.enabled:
            return fn(*args)
        start = perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self.spans.append(Span(self.pass_index, self.job, name, start, perf_counter(), 0))
            self.raised[self.pass_index, layer(name)] += 1
            raise
        end = perf_counter()
        self.spans.append(Span(self.pass_index, self.job, name, start, end, max_bits(result)))
        return result
