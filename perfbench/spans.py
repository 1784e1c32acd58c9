"""In-memory spans around calls into the package's public functions.

A Tracer patches a function at the module attribute where its caller
looks it up, records one span per call (name, start, end, parent, and a
few facts taken from the arguments or the result), and puts every
original back on exit. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Tracer.spans
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def stage(self, name: str):
        """A span around the benchmark's own code."""
        index = self.open(name)
        try:
            yield self.spans[index]
        finally:
            self.close(index)

    def wrap(self, module_name: str, attr: str, span_name: str, facts=None) -> None:
        """Replace module.attr with a spanning wrapper until restore().
        `attr` may be dotted, as in "Class.method".

        facts(args, kwargs, result) returns a dict stored on the span; it
        runs after the end time is taken, so it is not counted.
        """
        owner = importlib.import_module(module_name)
        *path, attr = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            index = tracer.open(span_name)
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                tracer.close(index).info["raised"] = type(exc).__name__
                raise
            span = tracer.close(index)
            if facts is not None:
                span.info.update(facts(args, kwargs, result))
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> bool:
        self.restore()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are merged, so the result never goes negative.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
