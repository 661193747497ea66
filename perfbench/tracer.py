"""Timing of public calls, with optional in-memory spans.

Every call the benchmark makes into ``actrate`` goes through
``Tracer.call``. The call is always timed, because the end-to-end metrics
need its duration. While ``recording`` is on, it also appends a span:
name, start, end, parent span and request id. Spans stay in memory and
are written out once, at the end of the run.

A span's layer is the part of its name before the first dot (``solver``,
``model``, ``kernel``, ``sim``, ``binary``, ``bench``). Self time is the
span's duration minus the part of its interval that child spans cover.
"""

import json
import time
from dataclasses import asdict, dataclass

import numpy as np

# The speed of a shared machine drifts by up to 2x over tens of seconds, and
# the program's timings drift with it. A fixed numpy kernel, unrelated to
# actrate and timed between the program's calls, tracks that drift; times
# are reported scaled to the speed at which the kernel takes REFERENCE_S.
REFERENCE_S = 2.5e-3
_CAL_X = np.linspace(0.01, 1.0, 200_000)


def speed_sample() -> float:
    """Seconds the calibration kernel takes right now."""
    t0 = time.perf_counter()
    for _ in range(4):
        float((_CAL_X * np.log(_CAL_X)).sum())
    return time.perf_counter() - t0


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: str | None


class Tracer:
    def __init__(self):
        self.recording = False
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def call(self, name, request, fn, *args, **kwargs):
        """Run ``fn(*args, **kwargs)``; return (result, seconds)."""
        if not self.recording:
            t0 = time.perf_counter_ns()
            out = fn(*args, **kwargs)
            return out, (time.perf_counter_ns() - t0) * 1e-9
        span = self._open_span(name, request)
        try:
            out = fn(*args, **kwargs)
        finally:
            self._close_span(span)
        return out, (span.end_ns - span.start_ns) * 1e-9

    def group(self, name, request):
        """Context manager for a parent span around several calls."""
        return _Group(self, name, request)

    def _open_span(self, name, request):
        parent = self._open[-1].id if self._open else None
        span = Span(len(self.spans), name, 0, 0, parent, request)
        self.spans.append(span)
        self._open.append(span)
        span.start_ns = time.perf_counter_ns()
        return span

    def _close_span(self, span):
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    def self_times(self) -> dict[int, float]:
        """Seconds of each span's interval not covered by its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered = 0
            edge = s.start_ns
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start_ns):
                lo, hi = max(c.start_ns, edge, s.start_ns), min(c.end_ns, s.end_ns)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[s.id] = (s.end_ns - s.start_ns - covered) * 1e-9
        return out

    def by_name(self) -> dict[str, tuple[int, float, list[float]]]:
        """name -> (count, total self seconds, per-span durations in seconds)."""
        selfs = self.self_times()
        out: dict[str, tuple[int, float, list[float]]] = {}
        for s in self.spans:
            n, tot, durs = out.get(s.name, (0, 0.0, []))
            durs.append((s.end_ns - s.start_ns) * 1e-9)
            out[s.name] = (n + 1, tot + selfs[s.id], durs)
        return out

    def layer_self_seconds(self) -> dict[str, float]:
        selfs = self.self_times()
        out: dict[str, float] = {}
        for s in self.spans:
            layer = s.name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + selfs[s.id]
        return out

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump([asdict(s) for s in self.spans], fh)


class _Group:
    def __init__(self, tracer, name, request):
        self.tracer, self.name, self.request = tracer, name, request
        self.span = None

    def __enter__(self):
        if self.tracer.recording:
            self.span = self.tracer._open_span(self.name, self.request)
        return self

    def __exit__(self, *exc):
        if self.span is not None:
            self.tracer._close_span(self.span)
        return False
