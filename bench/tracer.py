"""In-memory span tracer for the occball benchmark.

The tracer replaces public occball functions where their callers look them
up: every occball module global bound to the original function, or the
method on its class.  Nothing inside ``src/`` changes.

Two kinds of wrapper exist:

* a *span* records (name, start, end, parent, payload) per call.  It is used
  for calls made a few thousand times per workload pass at most.
* a *leaf* only adds its call count and busy time to an aggregate keyed by
  (name, enclosing span).  It is used for the per-step functions
  (``cartpole.step``, ``controllers.act``, ``sac.act``), which run hundreds of
  thousands of times per pass; one span object per step would cost more
  memory and time than the step itself.  A leaf must not call another
  wrapped function.

Spans stay in memory and are written out once, by the benchmark, at exit.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# span record layout
NAME, START, END, PARENT, PAYLOAD = range(5)


class Tracer:
    def __init__(self):
        self.spans = []
        self.leaves = {}  # (leaf name, parent span index) -> [calls, seconds]
        self._stack = []
        self._patches = []

    # -- wrappers ---------------------------------------------------------

    def span(self, name, fn, measure=None):
        """Wrap fn so that each call records a span.

        measure(result) -> payload is stored with the span; a call that
        raises stores the exception instead and re-raises it.
        """
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[END] = perf_counter()
                rec[PAYLOAD] = exc
                raise
            finally:
                stack.pop()
            rec[END] = perf_counter()
            if measure is not None:
                rec[PAYLOAD] = measure(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def leaf(self, name, fn):
        """Wrap fn so that each call adds to its (name, parent) aggregate."""
        leaves, stack = self.leaves, self._stack

        def traced(*args, **kwargs):
            t0 = perf_counter()
            result = fn(*args, **kwargs)
            dt = perf_counter() - t0
            key = (name, stack[-1] if stack else -1)
            agg = leaves.get(key)
            if agg is None:
                leaves[key] = [1, dt]
            else:
                agg[0] += 1
                agg[1] += dt
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def region(self, name):
        """A span around a block of benchmark code (a set-up or one pass)."""
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        try:
            yield rec
        finally:
            rec[END] = perf_counter()
            self._stack.pop()

    # -- patching ---------------------------------------------------------

    def install(self, targets):
        """Patch each (kind, "module:attr" or "module:Class.method", name[, measure]).

        kind is "span" or "leaf".  A module function is replaced in every
        loaded occball module that binds it, so callers that imported it by
        name see the wrapper too.
        """
        for kind, where, name, *rest in targets:
            module_name, attr = where.split(":")
            module = importlib.import_module(module_name)
            wrap = self.span if kind == "span" else self.leaf
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, wrap(name, original, *rest))
                continue
            original = getattr(module, attr)
            wrapper = wrap(name, original, *rest)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "occball" or mod_name.startswith("occball.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextmanager
    def installed(self, targets):
        self.install(targets)
        try:
            yield self
        finally:
            self.uninstall()

    # -- analysis ---------------------------------------------------------

    def root_of(self, root_name):
        """Index of the nearest enclosing span named root_name, per span (-1: none)."""
        roots = []
        for i, rec in enumerate(self.spans):
            if rec[NAME] == root_name:
                roots.append(i)
            else:
                parent = rec[PARENT]
                roots.append(roots[parent] if parent >= 0 else -1)
        return roots

    def child_seconds(self):
        """Per span: seconds covered by its direct child spans and leaves."""
        covered = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                covered[rec[PARENT]] += rec[END] - rec[START]
        for (_, parent), (_, seconds) in self.leaves.items():
            if parent >= 0:
                covered[parent] += seconds
        return covered

    def to_json(self):
        return {
            "spans": [
                [rec[NAME], rec[START], rec[END], rec[PARENT], _jsonable(rec[PAYLOAD])]
                for rec in self.spans
            ],
            "leaves": [
                [name, parent, calls, seconds]
                for (name, parent), (calls, seconds) in self.leaves.items()
            ],
        }


def _jsonable(payload):
    if payload is None or isinstance(payload, (bool, int, float, str)):
        return payload
    if isinstance(payload, BaseException):
        return f"{type(payload).__name__}: {payload}"
    if isinstance(payload, dict):
        return {k: _jsonable(v) for k, v in payload.items()}
    if isinstance(payload, (list, tuple)):
        return [_jsonable(v) for v in payload]
    return repr(payload)


def leaf_call_cost(calls=200_000):
    """Seconds a leaf wrapper adds to one call, measured on a no-op function."""

    def noop():
        return None

    tracer = Tracer()
    wrapped = tracer.leaf("noop", noop)
    with tracer.region("calibrate"):
        t0 = perf_counter()
        for _ in range(calls):
            noop()
        bare = perf_counter() - t0
        t0 = perf_counter()
        for _ in range(calls):
            wrapped()
        traced = perf_counter() - t0
    return max(traced - bare, 0.0) / calls
