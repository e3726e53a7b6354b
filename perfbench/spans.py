"""In-memory spans around swapped-in wrappers of the program's entry points.

A :class:`Tracer` replaces chosen class and module attributes with timing
wrappers (:meth:`Tracer.patch` / :meth:`Tracer.wrap`) and puts every
original object back on :meth:`Tracer.uninstall`, so a traced run leaves
the program exactly as it found it.  Nothing under ``src/`` knows about
spans: the benchmark owns all of this.

A span records its name, start, end, thread, session id, parent span and
the log epoch it ran for.  The parent is the innermost open span on the
same thread, or — for work handed to another thread — the span that
handed it over (:meth:`Tracer.capture` / :meth:`Tracer.adopt`).  Spans are
appended to a list in memory and written out once, when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    """One timed call: ``[start, end]`` in ``time.perf_counter`` seconds."""

    __slots__ = ("id", "name", "start", "end", "thread", "session", "parent", "epoch", "error")

    def __init__(self, id, name, start, end, thread, session, parent, epoch, error):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread
        self.session = session
        self.parent = parent
        self.epoch = epoch
        self.error = error

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> Dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}


class _Context(threading.local):
    """Per-thread trace context: open spans, current session and epoch."""

    def __init__(self) -> None:
        self.stack: List[int] = []
        self.session: Optional[str] = None
        self.epoch: Optional[int] = None


class Tracer:
    """Collects spans from the wrappers it installs."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ctx = _Context()
        # (owner, attribute, original object or _ABSENT) in patch order.
        self._saved: List[Tuple[object, str, object]] = []

    # -- context ---------------------------------------------------------------
    def set_session(self, session: Optional[str]) -> None:
        """Attribute spans opened on this thread to ``session``."""
        self._ctx.session = session

    @property
    def session(self) -> Optional[str]:
        return self._ctx.session

    def capture(self) -> Tuple[Optional[int], Optional[str], Optional[int]]:
        """This thread's (innermost span, session, epoch), for a hand-off."""
        ctx = self._ctx
        return (ctx.stack[-1] if ctx.stack else None, ctx.session, ctx.epoch)

    @contextlib.contextmanager
    def adopt(self, captured, epoch: Optional[int] = None):
        """Run the body on this thread as if inside the captured context.

        ``epoch`` overrides the captured epoch (the epoch wrapper uses it
        to open a new epoch context)."""
        parent, session, captured_epoch = captured
        ctx = self._ctx
        saved = (ctx.stack, ctx.session, ctx.epoch)
        ctx.stack = [parent] if parent is not None else []
        ctx.session = session
        ctx.epoch = captured_epoch if epoch is None else epoch
        try:
            yield
        finally:
            ctx.stack, ctx.session, ctx.epoch = saved

    # -- recording -------------------------------------------------------------
    def record(self, name: str, start: float, end: float, parent=None, session=None,
               epoch=None, error: bool = False) -> Span:
        """Append a span measured by the caller (e.g. a queue wait)."""
        span = Span(next(self._ids), name, start, end, threading.get_ident(),
                    session, parent, epoch, error)
        self.spans.append(span)
        return span

    def timed(self, name: str, fn: Callable, session_of: Optional[Callable] = None) -> Callable:
        """``fn`` wrapped in a span; ``session_of(args)`` may name the
        session from the call's own arguments."""
        ctx = self._ctx
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = next(ids)
            stack = ctx.stack
            parent = stack[-1] if stack else None
            session = session_of(args) if session_of is not None else ctx.session
            stack.append(span_id)
            error = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
                error = False
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, get_ident(), session,
                                  parent, ctx.epoch, error))

        return wrapper

    def take(self) -> List[Span]:
        """Remove and return the spans recorded so far.

        Wrappers keep appending to the same list from other threads, so it
        is cut in place: the copy and the prefix deletion are each atomic
        under the interpreter lock, and a span appended between them stays."""
        taken = self.spans[:]
        del self.spans[: len(taken)]
        return taken

    # -- patching ---------------------------------------------------------------
    def patch(self, owner: object, attr: str, make: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` by ``make(original function)``.

        Static and class methods keep their descriptor type.  The raw
        attribute (or its absence, for an inherited one) is saved so that
        :meth:`uninstall` restores exactly what was there."""
        own = vars(owner).get(attr, _ABSENT)
        raw = own
        if raw is _ABSENT:  # inherited: find the raw descriptor up the MRO
            for base in getattr(owner, "__mro__", ())[1:]:
                if attr in vars(base):
                    raw = vars(base)[attr]
                    break
            else:
                raise AttributeError(f"{owner!r} has no attribute {attr!r}")
        if isinstance(raw, staticmethod):
            replacement = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            replacement = classmethod(make(raw.__func__))
        elif callable(raw):
            replacement = make(raw)
        else:
            raise TypeError(f"{owner!r}.{attr} is not callable")
        self._saved.append((owner, attr, own))
        setattr(owner, attr, replacement)

    def wrap(self, owner: object, attr: str, name: str,
             session_of: Optional[Callable] = None) -> None:
        """Patch ``owner.attr`` with a plain timing span named ``name``."""
        self.patch(owner, attr, lambda fn: self.timed(name, fn, session_of))

    def uninstall(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)

    @property
    def installed(self) -> bool:
        return bool(self._saved)


_ABSENT = object()


# -- analysis --------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def children_of(spans: Sequence[Span]) -> Dict[int, List[Span]]:
    """Parent span id -> its child spans."""
    kids: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            kids.setdefault(span.parent, []).append(span)
    return kids


def self_time(span: Span, kids: Dict[int, List[Span]], same_thread: bool = False) -> float:
    """Duration minus the part of it that child spans cover.

    ``same_thread`` counts only children on the span's own thread — the
    wall time a caller spent inside instrumented layers rather than, say,
    work it queued for a worker and waited on."""
    children = kids.get(span.id, ())
    if same_thread:
        children = [c for c in children if c.thread == span.thread]
    return span.duration - covered(((c.start, c.end) for c in children), span.start, span.end)


def write_spans(path: str, spans: Sequence[Span], header: Dict) -> None:
    """One JSON object per line: the header first, then every span."""
    with open(path, "w") as handle:
        handle.write(json.dumps(header) + "\n")
        for span in spans:
            handle.write(json.dumps(span.as_dict()) + "\n")
