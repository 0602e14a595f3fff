"""In-memory span recorder for the traced run.

A span is (name, start, end, parent, request id), times in perf_counter_ns.
Spans are kept in one flat integer array while the run lasts and written out
when it ends.  A span's self time is its duration minus the durations of its
children; a request span's self time is the request time outside every layer
span (``bench.untraced_ms``).
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from time import perf_counter_ns

REQUEST = "request"
_FIELDS = 5  # name id, start, end, parent index, request id


class NullRecorder:
    """Used by untraced passes: calls straight through and records nothing."""

    request_id = -1

    def call(self, name, fn, *args):
        return fn(*args)

    def count(self, name, n):
        pass


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans = array("q")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request_id = -1

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name: str) -> int:
        index = len(self.spans) // _FIELDS
        parent = self._stack[-1] if self._stack else -1
        self.spans.extend((self._name_id(name), 0, 0, parent, self.request_id))
        return index

    def call(self, name, fn, *args):
        index = self._open(name)
        self._stack.append(index)
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            end = perf_counter_ns()
            self._stack.pop()
            self.spans[index * _FIELDS + 1] = start
            self.spans[index * _FIELDS + 2] = end

    def add(self, name: str, start: int, end: int) -> None:
        """A finished span measured elsewhere (a child process), under the open span."""
        index = self._open(name)
        self.spans[index * _FIELDS + 1] = start
        self.spans[index * _FIELDS + 2] = end

    def count(self, name: str, n) -> None:
        self.counts[name] += n

    now = staticmethod(perf_counter_ns)

    def __len__(self) -> int:
        return len(self.spans) // _FIELDS

    def rows(self):
        s = self.spans
        for i in range(0, len(s), _FIELDS):
            yield self.names[s[i]], s[i + 1], s[i + 2], s[i + 3], s[i + 4]

    def self_times_ns(self) -> dict[str, int]:
        """Total self time per span name; ``request`` holds the untraced part."""
        s = self.spans
        child_ns = [0] * len(self)
        for i in range(len(self)):
            parent = s[i * _FIELDS + 3]
            if parent >= 0:
                child_ns[parent] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1]
        totals: dict[str, int] = defaultdict(int)
        for i in range(len(self)):
            name = self.names[s[i * _FIELDS]]
            totals[name] += s[i * _FIELDS + 2] - s[i * _FIELDS + 1] - child_ns[i]
        return dict(totals)

    def request_ns(self) -> int:
        """Summed duration of the request spans."""
        rid = self._ids.get(REQUEST)
        s = self.spans
        return sum(s[i + 2] - s[i + 1] for i in range(0, len(s), _FIELDS) if s[i] == rid)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            for row in self.rows():
                fh.write("\t".join(map(str, row)) + "\n")
