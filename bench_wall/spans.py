"""The benchmark's own in-memory span recorder.

Spans are recorded from the benchmark's files, around the calls into
each layer of ``repro``; nothing inside the program is instrumented.
A span carries a name (``<module>.<what>``), host ``perf_counter``
start and end, the index of the span that was open when it started
(its parent), and the workload it belongs to.  Spans stay in memory
until the run ends; ``run.py`` writes them to ``out/trace.json``.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext


class Recorder:
    """Nested host-time spans for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        #: ``[name, start, end, parent index or None]`` per span, in
        #: start order.
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def durations(self, name: str) -> list[float]:
        """Seconds of every span called ``name``, in start order."""
        return [end - start for n, start, end, _ in self.spans if n == name]

    def as_rows(self) -> list[dict]:
        """JSON rows with ``self_s`` = duration minus the children's."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        return [
            {
                "id": index,
                "workload": self.workload,
                "name": name,
                "start_s": start,
                "end_s": end,
                "parent": parent,
                "self_s": (end - start) - child_s[index],
            }
            for index, (name, start, end, parent) in enumerate(self.spans)
        ]


class NullRecorder:
    """The untraced run's recorder: ``span`` costs one shared no-op."""

    _NULL = nullcontext()

    def span(self, name: str):
        return self._NULL


NULL_RECORDER = NullRecorder()
