"""Spans and call counts for csisplit's public functions, installed from
outside the package.

A target is named ``<module>.<attribute>`` relative to ``csisplit``. Its
function object is replaced in every loaded ``csisplit.*`` module that binds
it, so names brought in with ``from .x import f`` are caught too. A class
target wraps the class's ``__init__`` (its constructor). A target that no
longer exists is listed in ``Tracer.absent`` and otherwise ignored.

Spanned targets record (name, start, end, parent); counted targets only
increment a counter, which keeps the cost low on hot inner functions.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in Tracer.spans


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for idx, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(idx, []), key=lambda c: c.start):
            lo, hi = max(child.start, reach), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
            reach = max(reach, hi)
        out.append(span.end - span.start - covered)
    return out


def inclusive_seconds(spans: list[Span]) -> dict[str, float]:
    """Total duration per span name, not counting a span nested in one of the same name."""
    totals: dict[str, float] = {}
    for span in spans:
        parent = span.parent
        while parent is not None and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent is None:
            totals[span.name] = totals.get(span.name, 0.0) + span.end - span.start
    return totals


def resolve(target: str):
    """The object ``csisplit.<module>.<attribute>`` names, or None."""
    module_name, _, attr = target.partition(".")
    try:
        module = importlib.import_module(f"csisplit.{module_name}")
    except ImportError:
        return None
    return getattr(module, attr, None)


class Tracer:
    """Records spans, call counts and work totals while installed.

    ``spanned`` maps a target to None or to a function of the call's bound
    arguments that returns the units of work the call did (summed into
    ``work``). ``counted`` lists targets that are only counted.
    """

    def __init__(self, spanned: dict, counted=()):
        self.spanned = dict(spanned)
        self.counted = tuple(counted)
        self.absent = sorted(t for t in (*self.spanned, *self.counted) if resolve(t) is None)
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self.work: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self.work, self._stack = [], Counter(), Counter(), []

    def __enter__(self) -> Tracer:
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for target, work in self.spanned.items():
            self._wrap(target, lambda fn, t=target, w=work: self._spanning(t, fn, w))
        for target in self.counted:
            self._wrap(target, lambda fn, t=target: self._counting(t, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, target: str, make) -> None:
        obj = resolve(target)
        if obj is None:
            return
        if inspect.isclass(obj):
            self._restore.append((obj, "__init__", obj.__dict__["__init__"]))
            obj.__init__ = make(obj.__dict__["__init__"])
            return
        wrapper = make(obj)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "csisplit" or name.startswith("csisplit.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def _spanning(self, name: str, fn, work):
        signature = inspect.signature(fn) if work is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter(), math.nan, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.work[name] += work(bound.arguments)
            return result

        return wrapper

    def _counting(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper
