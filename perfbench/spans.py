"""In-memory span tracer that wraps package functions from outside the package.

Each call of a wrapped function is one span.  Open spans form a stack, so a
span's self time is its duration minus the time of the spans it caused.  Only
per-label totals are kept: the wrapped functions run tens of thousands of
times in one suite pass, and per-span records would cost more than they tell.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter


@dataclass
class SpanStats:
    calls: int = 0
    computed: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Collects span totals; `patch` swaps functions for spans until `restore`."""

    def __init__(self) -> None:
        self.stats: defaultdict[str, SpanStats] = defaultdict(SpanStats)
        self._open: list[float] = []  # child time of each open span
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, label, fn, computes=None, results=None):
        """Span around `fn`.

        `computes(*args)` says whether the call misses a cache; `results`, a
        list, collects every return value.
        """
        stats = self.stats[label]
        open_spans = self._open

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stats.calls += 1
            if computes is not None and computes(*args, **kwargs):
                stats.computed += 1
            open_spans.append(0.0)
            start = perf_counter()
            try:
                value = fn(*args, **kwargs)
                if results is not None:
                    results.append(value)
                return value
            finally:
                elapsed = perf_counter() - start
                stats.total_s += elapsed
                stats.self_s += elapsed - open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def patch(self, owner, attr: str, label: str, computes=None, results=None) -> None:
        """Replace `owner.attr` by a span.

        For a class, the method is replaced on the class.  For a module, the
        function is replaced in every module of the same package that imported
        it by name, so calls between modules go through the span too.
        """
        original = getattr(owner, attr)
        span = self.wrap(label, original, computes, results)
        if isinstance(owner, type):
            targets = [owner]
        else:
            package = owner.__name__.split(".")[0]
            targets = [
                module
                for name, module in list(sys.modules.items())
                if (name == package or name.startswith(package + "."))
                and getattr(module, attr, None) is original
            ]
        for target in targets:
            self._patched.append((target, attr, original))
            setattr(target, attr, span)

    def restore(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
