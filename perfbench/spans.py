"""In-memory span recorder for the traced benchmark run.

A span is ``[name, start_ns, end_ns, parent, group, value]``: ``parent`` is
the index of the enclosing span (-1 for a root), ``group`` is shared by all
spans of one query (-1 outside queries), and ``value`` is an optional
number a probe derives from the call (rows scanned, 1 for a hit). Spans are
appended when they begin, so a parent always precedes its children.

Layers are observed from outside the program: :meth:`Tracer.patched`
replaces a function under the name its caller looks it up by, records one
span per call, and puts the original back on exit.
"""

from __future__ import annotations

import gzip
import time
from contextlib import contextmanager

NAME, START, END, PARENT, GROUP, VALUE = range(6)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.group = -1
        self._open: list = []

    def _begin(self, name: str) -> list:
        rec = [name, 0, 0, self._open[-1] if self._open else -1, self.group, None]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = time.perf_counter_ns()
        return rec

    def _end(self, rec: list) -> None:
        rec[END] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._begin(name)
        try:
            yield rec
        finally:
            self._end(rec)

    def _wrap(self, fn, name: str, probe):
        def traced(*args, **kwargs):
            rec = self._begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._end(rec)
            if probe is not None:
                rec[VALUE] = probe(args, out)
            return out

        return traced

    @contextmanager
    def patched(self, probes):
        """Trace every ``(owner, attribute, span name, probe)`` in probes
        for the duration of the block; ``probe(args, result)`` may be None."""
        saved = []
        try:
            for owner, attr, name, probe in probes:
                fn = getattr(owner, attr)
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, name, probe))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    def write(self, path) -> None:
        """Write all spans as gzipped CSV, one span per line."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("name,start_ns,end_ns,parent,group,value\n")
            for s in self.spans:
                f.write(f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[GROUP]},"
                        f"{'' if s[VALUE] is None else s[VALUE]}\n")


def duration(span) -> int:
    return span[END] - span[START]


def union_length(intervals) -> int:
    """Total length covered by a set of [start, end) intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans) -> list:
    """Each span's duration minus the part of it its child spans cover."""
    children: dict = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [
            (max(spans[c][START], s[START]), min(spans[c][END], s[END]))
            for c in children.get(i, ())
        ]
        out.append(duration(s) - union_length(k for k in kids if k[0] < k[1]))
    return out


def roots(spans) -> list:
    """Index of each span's outermost ancestor."""
    out = []
    for i, s in enumerate(spans):
        out.append(i if s[PARENT] < 0 else out[s[PARENT]])
    return out
