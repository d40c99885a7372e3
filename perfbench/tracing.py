"""Spans recorded from outside the program, and the wrappers that record them.

The benchmark never edits ``src/``: it times calls into each layer's
public functions by replacing them, for the length of one traced run,
with wrappers that open and close a span.  :class:`Patcher` installs the
wrappers and puts every original back; :class:`SpanTracer` keeps the
spans and folds each one into per-name totals as it closes.

Self time is a span's duration minus the time its direct children
cover.  The tracer keeps it exact as it goes: every open span carries the
summed duration of the children that closed inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

__all__ = [
    "Span",
    "SpanTracer",
    "Patcher",
    "self_times",
]

#: Spans kept for the written trace; later spans are still totalled.
DEFAULT_SPAN_CAP = 50_000


@dataclass(frozen=True)
class Span:
    """One closed call: what ran, when, inside which span, for which point."""

    span_id: int
    name: str
    start_ns: int
    end_ns: int
    parent_id: int  # 0 for a root span
    point: int  # 0 outside any grid point

    def to_dict(self) -> dict[str, Any]:
        return {"id": self.span_id, "name": self.name, "start_ns": self.start_ns,
                "end_ns": self.end_ns, "parent": self.parent_id,
                "point": self.point}


def self_times(spans: Iterable[Span]) -> dict[str, int]:
    """Per-name self time (ns) of a closed span tree, computed offline.

    The reference for :class:`SpanTracer`'s running totals: a span's
    self time is its duration minus the durations of its direct
    children.
    """
    spans = list(spans)
    child_ns: dict[int, int] = {}
    for span in spans:
        if span.parent_id:
            child_ns[span.parent_id] = (child_ns.get(span.parent_id, 0)
                                        + span.end_ns - span.start_ns)
    totals: dict[str, int] = {}
    for span in spans:
        own = span.end_ns - span.start_ns - child_ns.get(span.span_id, 0)
        totals[span.name] = totals.get(span.name, 0) + own
    return totals


@dataclass
class SpanTracer:
    """In-memory span recorder with running per-name totals.

    ``totals[name]`` is ``[calls, total_ns, self_ns]``.  Spans whose
    name is in ``point_roots`` start a new grid point: they and every
    span inside them share its id.
    """

    clock: Callable[[], int] = time.perf_counter_ns
    point_roots: frozenset[str] = frozenset()
    span_cap: int = DEFAULT_SPAN_CAP
    totals: dict[str, list[int]] = field(default_factory=dict)
    spans: list[Span] = field(default_factory=list)
    dropped: int = 0
    # Open spans: [span_id, name, start_ns, child_ns, parent_id, point].
    _stack: list[list[Any]] = field(default_factory=list)
    _next_id: int = 1
    _next_point: int = 1

    def begin(self, name: str) -> list[Any]:
        stack = self._stack
        if stack:
            parent = stack[-1]
            parent_id, point = parent[0], parent[5]
        else:
            parent_id, point = 0, 0
        if name in self.point_roots:
            point = self._next_point
            self._next_point += 1
        frame = [self._next_id, name, self.clock(), 0, parent_id, point]
        self._next_id += 1
        stack.append(frame)
        return frame

    def end(self, frame: list[Any]) -> None:
        end_ns = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        stack.pop()
        duration = end_ns - frame[2]
        if stack:
            stack[-1][3] += duration
        entry = self.totals.get(frame[1])
        if entry is None:
            entry = self.totals[frame[1]] = [0, 0, 0]
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[3]
        if len(self.spans) < self.span_cap:
            self.spans.append(Span(frame[0], frame[1], frame[2], end_ns,
                                   frame[4], frame[5]))
        else:
            self.dropped += 1

    def wrap(self, name: str, func: Callable[..., Any],
             after: "Callable[[tuple, Any], None] | None" = None
             ) -> Callable[..., Any]:
        """``func`` inside a span named ``name``; ``after(args, result)``
        sees each successful call's arguments and result."""
        begin, end = self.begin, self.end

        @functools.wraps(func)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = begin(name)
            try:
                result = func(*args, **kwargs)
            finally:
                end(frame)
            if after is not None:
                after(args, result)
            return result

        return traced


_MISSING = object()


def _modules_under(prefix: str) -> list[Any]:
    return [module for name, module in list(sys.modules.items())
            if module is not None
            and (name == prefix or name.startswith(prefix + "."))]


class Patcher:
    """Replaces attributes for a while and restores them exactly.

    :meth:`patch_method` wraps an attribute defined in a class's own
    ``__dict__``; :meth:`patch_function` replaces a module-level function
    everywhere it was imported by name, so ``from .x import f`` call
    sites are covered too.  :meth:`restore` undoes every patch in reverse
    order, then rebinds any replacement a module imported after the
    patch went in; it is safe to call twice.
    """

    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        # (module prefix, replacement, original) per patched function.
        self._functions: list[tuple[str, Any, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def patch_method(self, cls: type, attr: str,
                     make: Callable[[Callable[..., Any]], Callable[..., Any]]
                     ) -> None:
        original = vars(cls).get(attr, _MISSING)
        if not callable(original) or isinstance(original, (staticmethod,
                                                           classmethod)):
            raise TypeError(f"{cls.__qualname__}.{attr} is not a plain method")
        self._set(cls, attr, make(original))

    def patch_function(self, module_prefix: str, func: Callable[..., Any],
                       make: Callable[[Callable[..., Any]], Callable[..., Any]]
                       ) -> None:
        """Rebind ``func`` in every loaded module under ``module_prefix``."""
        replacement = make(func)
        self._functions.append((module_prefix, replacement, func))
        for module in _modules_under(module_prefix):
            for attr, value in list(vars(module).items()):
                if value is func:
                    self._set(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        while self._functions:
            prefix, replacement, original = self._functions.pop()
            for module in _modules_under(prefix):
                for attr, value in list(vars(module).items()):
                    if value is replacement:
                        setattr(module, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc: object) -> None:
        self.restore()
