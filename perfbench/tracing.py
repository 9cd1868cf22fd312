"""Spans and counters recorded from outside bslib.

A span is opened around each call the benchmark makes into a layer and
around the public module attributes it patches; counters sit on the law
callables the benchmark passes in.  Self time is a span's duration minus
the time its child spans cover.  Per-name totals are kept for every span;
the span records themselves (name, start, end, parent) are kept in memory
for the case and first-level spans only, and written out at the end.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import time
from collections import Counter, defaultdict

import numpy as np

KEEP_DEPTH = 1  # case spans (depth 0) and the calls they make


class NullTracer:
    """Stands in for Tracer when tracing is off: every hook is a no-op."""

    enabled = False

    @contextlib.contextmanager
    def span(self, name):
        yield

    def law(self, law, **hooks):
        return law

    def count(self, name, n=1):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.stack = []  # [name, start, child_seconds, record index]
        self.records = []  # kept spans: [name, start, end, parent index]
        self.total = defaultdict(float)  # name -> seconds
        self.self_time = defaultdict(float)
        self.calls = Counter()
        # seconds and calls of spans whose parent belongs to another layer
        self.layer_total = defaultdict(float)
        self.layer_calls = Counter()
        self.counts = Counter()
        self.missing = {}  # hook -> reason it could not be installed
        self.cf_batches = []  # joint-cf point arrays of the bound call in progress

    def begin(self, name: str) -> None:
        idx = None
        if len(self.stack) <= KEEP_DEPTH:
            parent = self.stack[-1][3] if self.stack else None
            idx = len(self.records)
            self.records.append([name, 0.0, 0.0, parent])
        self.stack.append([name, time.perf_counter(), 0.0, idx])

    def end(self) -> None:
        t1 = time.perf_counter()
        name, t0, child, idx = self.stack.pop()
        dur = t1 - t0
        if idx is not None:
            self.records[idx][1:3] = [t0, t1]
        self.total[name] += dur
        self.self_time[name] += dur - child
        self.calls[name] += 1
        layer = name.split(".", 1)[0]
        if self.stack:
            self.stack[-1][2] += dur
        if not self.stack or self.stack[-1][0].split(".", 1)[0] != layer:
            self.layer_total[name] += dur
            self.layer_calls[name] += 1

    @contextlib.contextmanager
    def span(self, name: str):
        self.begin(name)
        try:
            yield
        finally:
            self.end()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()

        return traced

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def counted(self, name: str, fn):
        """fn with a counter of the points it is called on (1 per scalar)."""
        counts = self.counts

        def wrapped(x, *args, **kwargs):
            counts[name] += 1 if isinstance(x, (float, int, complex)) else np.size(x)
            return fn(x, *args, **kwargs)

        return wrapped

    def law(self, law, **hooks):
        """A copy of `law` with its callables wrapped.  attr="name" counts the
        points each call is made on; attr=("name", factory) wraps with
        factory(callable).  The name is the hook reported if wrapping fails."""
        try:
            made = {}
            for attr, hook in hooks.items():
                name, make = (hook, None) if isinstance(hook, str) else hook
                fn = getattr(law, attr)
                made[attr] = self.counted(name, fn) if make is None else make(fn)
            return dataclasses.replace(law, **made)
        except (TypeError, AttributeError) as exc:
            for hook in hooks.values():
                self.missing[hook if isinstance(hook, str) else hook[0]] = str(exc)
            return law

    @contextlib.contextmanager
    def patched(self, module, names):
        """Replace module attributes by traced wrappers for the block."""
        saved = {}
        layer = module.__name__.rsplit(".", 1)[-1]
        for n in names:
            fn = getattr(module, n, None)
            if fn is None:
                self.missing[f"{layer}.{n}"] = "no such attribute"
                continue
            saved[n] = fn
            setattr(module, n, self.wrap(f"{layer}.{n}", fn))
        try:
            yield
        finally:
            for n, fn in saved.items():
                setattr(module, n, fn)

    def write(self, path: str, extra: dict) -> None:
        payload = {
            "spans": [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.records],
            "totals": {
                n: {"calls": self.calls[n], "seconds": self.total[n], "self_seconds": self.self_time[n]}
                for n in sorted(self.total)
            },
            "counts": dict(self.counts),
            "missing": self.missing,
            **extra,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=1)
