"""Span tracer that wraps the module-level functions of the arl package.

The wrappers are installed from the benchmark's own files by replacing
module attributes, so ``src/`` is untouched. Calls between the arl modules
(and within one module) look the functions up as module globals at call
time, so every such call passes through a wrapper. A span stack gives each
span its parent and its self time (duration minus the time its wrapped
children cover). Spans stay in memory until ``take`` hands them over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import time
from collections import defaultdict

MODULES = ("meta", "model", "losses", "theory", "data", "config", "cli")


class Tracer:
    def __init__(self):
        self.names = []  # span name by index
        self.wrapped = set()
        self._spans = []  # (span id, parent id, name index, start, end, self seconds)
        self._stack = [[0, 0.0]]  # [span id, time covered by children]; 0 is the root
        self._ids = itertools.count(1)

    def install(self, package="arl"):
        """Wrap every function defined at module level in the arl modules."""
        for short in MODULES:
            mod = importlib.import_module(f"{package}.{short}")
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    setattr(mod, attr, self.wrap(f"{short}.{attr}", fn))
                    self.wrapped.add(f"{short}.{attr}")

    def wrap(self, name, fn):
        index = len(self.names)
        self.names.append(name)
        spans, stack, ids, clock = self._spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [next(ids), 0.0]
            parent = stack[-1]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                parent[1] += end - start
                spans.append((frame[0], parent[0], index, start, end, end - start - frame[1]))

        return traced

    def take(self):
        """Hand over the spans recorded so far and start a new batch."""
        spans = self._spans[:]
        del self._spans[:]
        return spans

    def aggregate(self, spans):
        """Per span name: [calls, self seconds, inclusive seconds]."""
        stats = defaultdict(lambda: [0, 0.0, 0.0])
        for _, _, index, start, end, self_s in spans:
            entry = stats[self.names[index]]
            entry[0] += 1
            entry[1] += self_s
            entry[2] += end - start
        return dict(stats)

    def write_csv(self, spans, path):
        spans = sorted(spans)  # by span id, which is start order
        origin = spans[0][3] if spans else 0.0
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,self_s\n")
            for sid, parent, index, start, end, self_s in spans:
                fh.write(f"{sid},{parent},{self.names[index]},{start - origin:.9f},"
                         f"{end - origin:.9f},{self_s:.9f}\n")
