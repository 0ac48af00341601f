"""In-memory span tracing installed from outside the package.

A :class:`Tracer` wraps public functions of the ``repro`` package at the
module or class attribute their callers resolve at call time, records
one :class:`Span` per call (name, start, end, parent, thread), and keeps
every span in memory until the benchmark writes them out once at the
end. Nothing under ``src/`` knows it is being traced: :meth:`Tracer.
restore` puts every original attribute back.

Self time follows the usual definition: a span's duration minus the
part of its interval that its child spans cover (overlapping children
are counted once).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Hook run after a traced call returns: ``(span, args, result)``.
ResultHook = Callable[["Span", tuple, Any], None]


class Span:
    """One traced call."""

    __slots__ = ("id", "parent", "name", "thread", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str,
                 thread: int):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = 0.0
        self.end = 0.0
        self.attrs: Dict[str, Any] = {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self, origin: float = 0.0) -> Dict[str, Any]:
        return {
            "id": self.id,
            "parent": self.parent,
            "name": self.name,
            "thread": self.thread,
            "start": self.start - origin,
            "end": self.end - origin,
            **({"attrs": self.attrs} if self.attrs else {}),
        }


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by ``intervals``, overlaps counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: List[Span]) -> Dict[int, float]:
    """``{span id: duration minus the time its children cover}``."""
    children: Dict[int, List[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        out[span.id] = span.duration - covered
    return out


def coverage(spans: List[Span], start: float, end: float) -> float:
    """Share of ``[start, end]`` covered by top-level spans (any thread)."""
    if end <= start:
        return 0.0
    covered = union_length(
        (max(s.start, start), min(s.end, end))
        for s in spans if s.parent is None
    )
    return covered / (end - start)


class Tracer:
    """Records spans around patched callables; see the module docstring."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[Any, str, bool, Any]] = []

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable, reentrant: bool = True,
             on_result: Optional[ResultHook] = None) -> Callable:
        """``fn`` wrapped to record a span named ``name`` per call.

        ``reentrant=False`` records nothing for a call made while a span
        of the same name is already open on this thread (an overriding
        method that delegates to ``super()`` stays one span).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not reentrant and stack and stack[-1].name == name:
                return fn(*args, **kwargs)
            span = Span(
                next(tracer._ids),
                stack[-1].id if stack else None,
                name,
                threading.get_ident(),
            )
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if on_result is not None:
                on_result(span, args, result)
            return result

        return traced

    def patch(self, target: str, name: str, **options: Any) -> None:
        """Wrap ``"module:attr"`` or ``"module:Class.attr"`` in place."""
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *parents, attr = path.split(".")
        for part in parents:
            owner = getattr(owner, part)
        # A method a class inherits is shadowed on that class, and
        # restoring deletes the shadow instead of copying the base's.
        inherited = isinstance(owner, type) and attr not in vars(owner)
        original = getattr(owner, attr)
        self._patches.append((owner, attr, inherited, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attr, inherited, original = self._patches.pop()
            if inherited:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.restore()
