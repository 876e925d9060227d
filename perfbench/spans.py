"""Outside-in span tracer.

The tracer replaces public callables of the package, inside the benchmark
process only, with wrappers that record one span per call: name, start,
end, parent span and run id. Spans stay in memory until the run ends.
A span's self time is its duration minus the durations of its direct
children; calls on one thread nest, so children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # (name, start_ns, end_ns, parent index or -1, run id); a slot is
        # reserved on entry so children can name their parent
        self.spans: list = []
        self.work: dict = defaultdict(int)   # (name, run id) -> units of work
        self.run_id = "setup"
        self.active = False
        self._stack: list = []
        self._undo: list = []

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock, tracer = self.spans, self._stack, time.perf_counter_ns, self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            if work is not None:
                tracer.work[name, tracer.run_id] += work(*args)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, stack[-1] if stack else -1,
                              tracer.run_id)

        return traced

    def patch(self, owner, attr: str, name: str, work=None) -> None:
        """Replace `owner.attr` (a module global or a class attribute,
        classmethods included) by its traced wrapper."""
        original = owner.__dict__[attr]
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(name, original.__func__, work))
        else:
            replacement = self.wrap(name, original, work)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))

    def unpatch(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def run(self, run_id, root: str):
        """Trace one operation under a root span named `root`."""
        self.run_id = run_id
        self.active = True
        try:
            with self.span(root):
                yield
        finally:
            self.active = False

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.run_id)

    def self_times(self) -> list[int]:
        child = [0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, start, end, _, _) in enumerate(self.spans)]

    def summary(self, run_ids) -> dict:
        """name -> [calls, inclusive ns, self ns] over the given runs."""
        wanted = set(run_ids)
        out: dict = defaultdict(lambda: [0, 0, 0])
        for span, self_ns in zip(self.spans, self.self_times()):
            name, start, end, _, rid = span
            if rid in wanted:
                row = out[name]
                row[0] += 1
                row[1] += end - start
                row[2] += self_ns
        return out

    def counts(self, run_id) -> dict:
        """Exact per-run call counts, plus counts of child spans by parent
        name written as 'parent>child'."""
        out: dict = defaultdict(int)
        for name, _, _, parent, rid in self.spans:
            if rid != run_id:
                continue
            out[name] += 1
            if parent >= 0:
                out[f"{self.spans[parent][0]}>{name}"] += 1
        return dict(out)

    def write(self, path) -> int:
        """Write all spans as TSV; returns the number written."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\trun\n")
            for i, (name, start, end, parent, rid) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{start}\t{end}\t{parent}\t{rid}\n")
        return len(self.spans)
