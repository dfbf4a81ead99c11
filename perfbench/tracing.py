"""Spans around the public rotcav functions, installed from outside.

`installed(tracer)` replaces each function on the object it is looked
up from (mostly `rotcav.sweep`) with a wrapper that records a span, and
puts the originals back on exit.  No file of the package changes.  A
function that the package no longer has or no longer calls reports zero
calls.

Spans are kept in memory until the run ends.  A span's self time is its duration minus the
durations of its direct children; spans under one `run_point` call share
that call's point id.
"""

from __future__ import annotations

import contextlib
import functools
import math
import time
from dataclasses import dataclass

from rotcav import dynamics, sweep

POINT_SPAN = "sweep.run_point"


def _liouvillian_bytes(h_eff, *args, **kwargs) -> int:
    """Bytes of the dense D^2 x D^2 complex Liouvillian, computed."""
    return 16 * h_eff.shape[0] ** 4


def _lu_flops(lio, *args, **kwargs) -> float:
    """Real flops of a dense complex LU of the D^2 x D^2 system, computed."""
    return lu_flops(lio.dim)


def lu_flops(d: int) -> float:
    return 8.0 / 3.0 * float(d * d) ** 3


def sizes_computed(cutoffs: tuple[int, int]) -> dict[str, float]:
    """Problem sizes of one dense solve at these cutoffs, computed, not measured."""
    d = (cutoffs[0] + 1) * (cutoffs[1] + 1)
    return {
        "computed.D": d,
        "computed.D2": d * d,
        "computed.liouvillian_bytes": 16 * d**4,
        "computed.lu_flops": lu_flops(d),
    }


# (span name, owner, attribute, computed work per call or None)
TARGETS = (
    ("fock.build_basis", sweep, "build_basis", None),
    ("fock.annihilator_a", sweep, "annihilator_a", None),
    ("fock.annihilator_b", sweep, "annihilator_b", None),
    ("hamiltonian.build_h_eff", sweep, "build_h_eff", None),
    ("dynamics.build_liouvillian", sweep, "build_liouvillian", _liouvillian_bytes),
    ("dynamics.steady_state", sweep, "steady_state", _lu_flops),
    ("dynamics.validate", dynamics.DensityMatrix, "validate", None),
    ("observables.photon_statistics", sweep, "photon_statistics", None),
    (POINT_SPAN, sweep, "run_point", None),
    ("sweep.run_sweep", sweep, "run_sweep", None),
    ("sweep.render_csv", sweep, "render_csv", None),
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top
    point: int  # run_point call this span belongs to, -1 outside any
    work: float = 0.0
    failed: bool = False


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._points = 0

    def wrap(self, name: str, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1] if self._open else -1
            if name == POINT_SPAN:
                point, self._points = self._points, self._points + 1
            else:
                point = self.spans[parent].point if parent >= 0 else -1
            span = Span(name, 0.0, math.nan, parent, point)
            if work is not None:
                span.work = work(*args, **kwargs)
            self._open.append(len(self.spans))
            self.spans.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._open.pop()

        return traced


@contextlib.contextmanager
def installed(tracer: Tracer):
    saved = []
    try:
        for name, owner, attr, work in TARGETS:
            fn = getattr(owner, attr, None)
            if fn is not None:
                saved.append((owner, attr, fn))
                setattr(owner, attr, tracer.wrap(name, fn, work))
        yield tracer
    finally:
        for owner, attr, fn in reversed(saved):
            setattr(owner, attr, fn)


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(spans: list[Span], passes: int) -> dict[str, float]:
    """Per-layer totals for one pass, averaged over `passes` traced passes."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    self_s = {name: 0.0 for name, *_ in TARGETS}
    calls = dict.fromkeys(self_s, 0)
    failures = dict.fromkeys(self_s, 0)
    work = dict.fromkeys(self_s, 0.0)
    for s, c in zip(spans, child):
        self_s[s.name] += s.end - s.start - c
        calls[s.name] += 1
        failures[s.name] += s.failed
        work[s.name] += s.work
    point_ms = [1e3 * (s.end - s.start) for s in spans if s.name == POINT_SPAN]
    total = {
        "dynamics.steady_state.self_s": self_s["dynamics.steady_state"],
        "dynamics.steady_state.calls": calls["dynamics.steady_state"],
        "dynamics.steady_state.failures": failures["dynamics.steady_state"],
        "dynamics.steady_state.lu_flops_computed": work["dynamics.steady_state"],
        "dynamics.build_liouvillian.self_s": self_s["dynamics.build_liouvillian"],
        "dynamics.build_liouvillian.bytes_computed": work["dynamics.build_liouvillian"],
        "dynamics.validate.self_s": self_s["dynamics.validate"],
        "observables.photon_statistics.self_s": self_s["observables.photon_statistics"],
        "hamiltonian.build_h_eff.self_s": self_s["hamiltonian.build_h_eff"],
        "fock.self_s": sum(v for k, v in self_s.items() if k.startswith("fock.")),
        "sweep.run_point.self_s": self_s[POINT_SPAN],
        "sweep.run_point.s": 1e-3 * sum(point_ms),
        "sweep.run_sweep.self_s": self_s["sweep.run_sweep"],
        "sweep.render_csv.s": self_s["sweep.render_csv"],
    }
    per_pass = {k: v / passes for k, v in total.items()}
    per_pass["sweep.run_point.p50_ms"] = _percentile(point_ms, 0.50)
    per_pass["sweep.run_point.p95_ms"] = _percentile(point_ms, 0.95)
    return per_pass
