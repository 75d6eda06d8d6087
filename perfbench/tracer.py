"""Span tracing of covspectrum's layers, installed from outside the package.

``Tracer`` replaces each layer's public functions with a wrapper at every
module attribute that names them, so ``harness.build_A`` and
``normalize.build_A`` (or ``spectral.eigvals_sym`` and
``harness.eigvals_sym``) both reach the same wrapper.  No covspectrum
source changes.  A wrapper records one span (name, start, end, parent)
and one call; observers attached to a function name add counts taken from
its arguments or result.  Parents come from a per-thread stack; a span
opened on a pool thread with an empty stack takes as parent the innermost
span open on the thread that installed the tracer, which is the
``run_experiment`` span waiting on the pool.
"""

import functools
import inspect
import itertools
import threading
import time
from dataclasses import dataclass

LAYERS = ("ensemble", "normalize", "spectral", "momentlab", "harness", "reports", "cli")


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


def public_functions(module):
    """The functions a layer exports: its ``__all__``, or ``main`` for the CLI."""
    names = getattr(module, "__all__", None) or ["main"]
    short = module.__name__.rsplit(".", 1)[-1]
    return {
        f"{short}.{name}": getattr(module, name)
        for name in names
        if inspect.isfunction(getattr(module, name, None))
    }


class Tracer:
    """Wraps layer functions while installed; spans and counts stay in memory."""

    def __init__(self, package, observers=None):
        self._modules = [getattr(package, layer) for layer in LAYERS]
        self._observers = dict(observers or {})
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._home_stack = None
        self._home_thread = None
        self._patched = []
        self.spans = []
        self.counts = {}

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name, amount=1):
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def _wrap(self, name, fn):
        observe = self._observers.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif threading.get_ident() != self._home_thread and self._home_stack:
                parent = self._home_stack[-1]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                with self._lock:
                    self.spans.append(Span(span_id, name, start, end, parent, threading.get_ident()))
                    self.counts[name + ".calls"] = self.counts.get(name + ".calls", 0) + 1
            if observe is not None:
                for key, amount in observe(fn, args, kwargs, result).items():
                    self.add(key, amount)
            return result

        return wrapper

    def install(self):
        if self._patched:
            raise RuntimeError("tracer already installed")
        self._home_thread = threading.get_ident()
        self._home_stack = self._stack()
        wrappers = {}
        for module in self._modules:
            for name, fn in public_functions(module).items():
                wrappers[id(fn)] = (fn, self._wrap(name, fn))
        for module in self._modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])

    def uninstall(self):
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def self_times(self):
        """name -> layer-self seconds summed over the recorded spans.

        Layer-self time is a span's duration minus the part of it covered by
        spans of other layers that it reaches through same-layer calls, so
        ``truncation_pipeline`` keeps the time of ``truncate`` but not of a
        call into ``spectral``.  Covered time is a union, because children
        may run in parallel on pool threads.
        """
        children = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            layer = span.name.split(".", 1)[0]
            foreign, todo = [], list(children.get(span.id, ()))
            while todo:
                child = todo.pop()
                if child.name.split(".", 1)[0] == layer:
                    todo.extend(children.get(child.id, ()))
                else:
                    foreign.append((max(child.start, span.start), min(child.end, span.end)))
            own = span.end - span.start - _union_length(foreign)
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def child_busy(self, name):
        """Summed duration of the direct children of every span called ``name``."""
        ids = {span.id for span in self.spans if span.name == name}
        return sum(span.end - span.start for span in self.spans if span.parent in ids)


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(iv for iv in intervals if iv[1] > iv[0]):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total
