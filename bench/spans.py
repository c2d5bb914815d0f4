"""Spans recorded around calls into the library, from outside it.

The library has no tracing of its own, so the traced run replaces public
functions with wrappers in the module namespace where their caller looks
them up, for the duration of one ``Tracer.patched`` block.  Spans stay in
memory; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

from sdpibounds import bounds, gaussian, rate_distortion, sdpi

# (module, attribute, span name).  The first group is where the library
# looks up its own callees; the second is what the benchmark calls directly.
PATCH_POINTS = (
    (bounds, "sstar", "sdpi.sstar"),
    (bounds, "rd_at_distortion", "rate_distortion.rd_at_distortion"),
    (sdpi, "maximal_correlation", "sdpi.maximal_correlation"),
    (rate_distortion, "blahut_arimoto", "rate_distortion.blahut_arimoto"),
    (gaussian, "quantized_gaussian_joint", "gaussian.quantized_gaussian_joint"),
    (bounds, "full_report", "bounds.full_report"),
    (sdpi, "sstar", "sdpi.sstar"),
    (rate_distortion, "rd_at_distortion", "rate_distortion.rd_at_distortion"),
    (rate_distortion, "rd_curve", "rate_distortion.rd_curve"),
)


class Span:
    __slots__ = ("id", "name", "op", "parent", "start", "end", "error", "args", "result")

    def __init__(self, id_, name, op, parent, args):
        self.id = id_
        self.name = name
        self.op = op
        self.parent = parent
        self.args = args
        self.start = self.end = 0.0
        self.error = ""
        self.result = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, self.op_id, parent, args)
            self.spans.append(span)
            self._stack.append(span.id)
            span.start = time.perf_counter()
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced

    @contextmanager
    def patched(self):
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in PATCH_POINTS]
        try:
            for (mod, attr, name), (_, _, fn) in zip(PATCH_POINTS, saved):
                setattr(mod, attr, self._wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in saved:
                setattr(mod, attr, fn)

    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                child[s.parent] += s.duration
        return [s.duration - c for s, c in zip(self.spans, child)]

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w") as fh:
            for s, self_s in zip(self.spans, selfs):
                rec = {"id": s.id, "name": s.name, "op": s.op, "parent": s.parent,
                       "start": s.start, "end": s.end, "self_s": self_s, "error": s.error}
                for attr in ("evaluations", "iterations"):
                    if hasattr(s.result, attr):
                        rec[attr] = getattr(s.result, attr)
                fh.write(json.dumps(rec) + "\n")
