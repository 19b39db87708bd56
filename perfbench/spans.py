"""Spans and counters recorded from the benchmark's side of each layer call.

A span is (request, name, start_ns, end_ns); a count is (request, name, n).
Both are kept in memory and written out once, when the run ends.  The
disabled tracer records nothing, so untraced runs pay only for entering an
empty context manager.
"""

import contextlib
import json
import time

_NULL = contextlib.nullcontext()


class NullTracer:
    enabled = False
    request = None

    def span(self, name):
        return _NULL

    def count(self, name, n):
        pass


class Tracer:
    enabled = True

    def __init__(self):
        self.request = None  # (pass index, request index) of the request being served
        self.spans = []
        self.counts = []

    @contextlib.contextmanager
    def span(self, name):
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans.append((self.request, name, start, time.perf_counter_ns()))

    def count(self, name, n):
        self.counts.append((self.request, name, n))

    def add_span(self, name, start_ns, end_ns):
        """A span measured in another process (CLOCK_MONOTONIC is shared on Linux)."""
        self.spans.append((self.request, name, start_ns, end_ns))

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for req, name, start, end in self.spans:
                fh.write(json.dumps({"request": req, "span": name, "start_ns": start,
                                     "end_ns": end}) + "\n")
            for req, name, n in self.counts:
                fh.write(json.dumps({"request": req, "count": name, "n": n}) + "\n")
