"""In-memory span and count recorder, and the layer wrappers of the traced run.

The recorder keeps one buffer per thread, so recording a span takes no
lock.  A span stores its name, start, end (``perf_counter_ns``) and the
index of its parent, the span open in the same thread when it started.
Nothing is written while spans are recorded; ``summary()`` reduces them at
the end of the run.

``install(recorder)`` wraps the module-level callables of the layers the CLI
reaches, by attribute assignment, where their caller looks them up: ``cli``
binds ``rk4_integrate``, ``fd_derivative`` and ``residual_report`` by
``from ... import``, so those are patched on ``f13.cli``; ``conformal``
binds ``quadrature`` and ``cumulative_integral_refined`` the same way;
``residual_report`` looks up ``_efe_arr``, ``_jacobi_arr`` and
``_bianchi_arr`` as globals of ``f13.frame_equations``;
``ScaleFactor.__call__`` is patched on the class.  No source file changes.
"""

from __future__ import annotations

import importlib
import threading
import time
from array import array
from contextlib import contextmanager

import numpy as np


_NO_OUTCOME = object()  # the call was interrupted by a BaseException


class _ThreadBuffer:
    def __init__(self):
        self.name = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}


class Recorder:
    """Thread-safe recorder of nested spans and named counts."""

    def __init__(self, clock=time.perf_counter_ns):
        self._clock = clock
        self._lock = threading.Lock()
        self._local = threading.local()
        self._buffers: list[_ThreadBuffer] = []
        self._names: dict[str, int] = {}

    def _buffer(self) -> _ThreadBuffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _ThreadBuffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _name_id(self, name: str) -> int:
        nid = self._names.get(name)
        if nid is None:
            with self._lock:
                nid = self._names.setdefault(name, len(self._names))
        return nid

    def start(self, name: str) -> int:
        buf = self._buffer()
        idx = len(buf.start)
        buf.name.append(self._name_id(name))
        buf.parent.append(buf.stack[-1] if buf.stack else -1)
        buf.end.append(-1)
        buf.stack.append(idx)
        buf.start.append(self._clock())
        return idx

    def end(self, idx: int) -> None:
        t = self._clock()
        buf = self._local.buf
        buf.end[idx] = t
        buf.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.start(name)
        try:
            yield
        finally:
            self.end(idx)

    def count(self, name: str, n: int = 1) -> None:
        counts = self._buffer().counts
        counts[name] = counts.get(name, 0) + n

    def wrap(self, fn, name: str, counter=None):
        """``fn`` recorded as span ``name``.  ``counter(args, outcome)`` maps
        the call's arguments and its result (or the exception it raised) to
        a dict of counts to add."""

        def traced(*args, **kwargs):
            idx = self.start(name)
            outcome = _NO_OUTCOME
            try:
                outcome = fn(*args, **kwargs)
            except Exception as exc:
                outcome = exc
                raise
            finally:
                self.end(idx)
                if counter is not None and outcome is not _NO_OUTCOME:
                    for key, n in counter(args, outcome).items():
                        self.count(key, n)
            return outcome

        return traced

    def summary(self) -> dict:
        """Per span name: ``calls``, ``total_s`` (sum of durations),
        ``outer_s`` (durations of spans not nested in a span of the same
        name, so recursion and aliases count once) and ``self_s`` (durations
        minus the time of child spans); plus the summed counts."""
        names = {nid: name for name, nid in self._names.items()}
        spans: dict[str, dict] = {}
        counts: dict[str, int] = {}
        with self._lock:
            buffers = list(self._buffers)
        for buf in buffers:
            for key, n in buf.counts.items():
                counts[key] = counts.get(key, 0) + n
            if buf.stack:
                raise RuntimeError("summary() called with spans still open")
            if not len(buf.start):
                continue
            nid = np.frombuffer(buf.name, dtype=np.int64)
            parent = np.frombuffer(buf.parent, dtype=np.int64)
            dur = (np.frombuffer(buf.end, dtype=np.int64)
                   - np.frombuffer(buf.start, dtype=np.int64)).astype(float) * 1e-9
            has_parent = parent >= 0
            child = np.bincount(parent[has_parent], weights=dur[has_parent],
                                minlength=len(dur))
            nested = np.zeros(len(dur), dtype=bool)
            anc = parent.copy()
            while True:
                live = anc >= 0
                if not live.any():
                    break
                nested[live] |= nid[anc[live]] == nid[live]
                anc[live] = parent[anc[live]]
            for i in np.unique(nid):
                sel = nid == i
                rec = spans.setdefault(names[int(i)], {"calls": 0, "total_s": 0.0,
                                                       "outer_s": 0.0, "self_s": 0.0})
                rec["calls"] += int(sel.sum())
                rec["total_s"] += float(dur[sel].sum())
                rec["outer_s"] += float(dur[sel & ~nested].sum())
                rec["self_s"] += float((dur[sel] - child[sel]).sum())
        return {"spans": spans, "counts": counts}


# --- the layers of the traced run ---------------------------------------


def _points(ja) -> int:
    return int(np.prod(ja.shape)) if ja.shape else 1


def _count_rows(args, outcome):
    return {"cli.write_csv.rows": len(args[2][0])}


def _count_steps(args, outcome):
    # a pole stops the step that overflowed: its partial trajectory holds
    # every attempted step's start row
    states = getattr(outcome, "partial_states", None)
    if states is not None:
        return {"numerics.rk4_integrate.steps": states.shape[0]}
    if isinstance(outcome, BaseException):
        return {}
    return {"numerics.rk4_integrate.steps": outcome.states.shape[0] - 1}


def _count_nodes(args, outcome):
    return {"numerics.quadrature.nodes": len(args[0])}


def _count_report(args, outcome):
    ja = args[0]
    nbytes = sum(v.nbytes for v in vars(ja).values() if isinstance(v, np.ndarray))
    return {"frame_equations.residual_report.points": _points(ja),
            "frame_equations.jet_bytes": nbytes}


def _count_block(block):
    key = f"frame_equations.{block}.points"
    return lambda args, outcome: {key: _points(args[0])}


# (owner, attribute, span name, counter): patched where the caller looks it up
LAYER_PATCHES = (
    ("f13.cli", "_write_csv", "cli.write_csv", _count_rows),
    ("f13.cli", "_read_table", "cli.read_table", None),
    ("f13.cli", "_threaded_report", "cli.threaded_report", None),
    ("f13.cli", "rk4_integrate", "numerics.rk4_integrate", _count_steps),
    ("f13.cli", "fd_derivative", "numerics.fd_derivative", None),
    ("f13.cli", "residual_report", "frame_equations.residual_report", _count_report),
    ("f13.conformal", "quadrature", "numerics.quadrature", _count_nodes),
    ("f13.conformal", "cumulative_integral_refined", "numerics.quadrature", None),
    ("f13.numerics", "quadrature", "numerics.quadrature", _count_nodes),
    ("f13.conformal", "case_a1_rhs", "conformal.rhs", None),
    ("f13.conformal", "case_a2_rhs", "conformal.rhs", None),
    ("f13.conformal:ScaleFactor", "__call__", "conformal.ScaleFactor", None),
    ("f13.conformal:CaseA1ClosedForm", "clip_grid", "conformal.closed_form", None),
    ("f13.conformal:CaseA1ClosedForm", "evaluate", "conformal.closed_form", None),
    ("f13.conformal", "shearless_branch_fields", "conformal.closed_form", None),
    ("f13.conformal", "a2_branch2_fields", "conformal.closed_form", None),
    ("f13.conformal", "embed_special", "conformal.embed_special", None),
    ("f13.conformal", "bianchi_special_residuals", "conformal.special_residuals", None),
    ("f13.conformal", "ricci_einstein_residuals", "conformal.special_residuals", None),
    ("f13.frame_equations", "_efe_arr", "frame_equations.field", _count_block("field")),
    ("f13.frame_equations", "_jacobi_arr", "frame_equations.jacobi", _count_block("jacobi")),
    ("f13.frame_equations", "_bianchi_arr", "frame_equations.bianchi", _count_block("bianchi")),
)


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(recorder: Recorder):
    """Wrap every callable of LAYER_PATCHES; returns a function that puts
    the originals back."""
    saved = []
    for spec, attr, name, counter in LAYER_PATCHES:
        owner = _owner(spec)
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, recorder.wrap(original, name, counter))

    def uninstall():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return uninstall


def layer_metrics(summary: dict, rounds: int, points_per_round: int, workers: int,
                  untraced_tput: float, traced_tput: float) -> dict:
    """The per-layer metrics of one traced run as {name: (value, unit)};
    sums are per round, since every round runs the same ops."""
    spans, counts = summary["spans"], summary["counts"]

    def span(name, key):
        return spans.get(name, {}).get(key, 0)

    def per_round(value, unit):
        return value / rounds, unit + "/round"

    def ns_per_point(name):
        points = counts.get(f"{name}.points", 0)
        return (span(name, "total_s") * 1e9 / points if points else 0.0), "ns/point"

    rr_points = counts.get("frame_equations.residual_report.points", 0)
    sweep_s = span("cli.threaded_report", "total_s")
    busy_s = span("frame_equations.residual_report", "total_s")
    return {
        "cli.write_csv.s": per_round(span("cli.write_csv", "total_s"), "s"),
        "cli.write_csv.rows": per_round(counts.get("cli.write_csv.rows", 0), "rows"),
        "cli.read_table.s": per_round(span("cli.read_table", "total_s"), "s"),
        # residual_report is called only from cli._threaded_report
        "cli.threaded_report.busy_frac": (
            busy_s / (workers * sweep_s) if sweep_s else 0.0, "frac"),
        "numerics.rk4_integrate.self_s": per_round(span("numerics.rk4_integrate", "self_s"), "s"),
        "numerics.rk4_integrate.steps": per_round(
            counts.get("numerics.rk4_integrate.steps", 0), "steps"),
        "conformal.rhs.self_s": per_round(span("conformal.rhs", "self_s"), "s"),
        "conformal.rhs.calls": per_round(span("conformal.rhs", "calls"), "calls"),
        "conformal.ScaleFactor.s": per_round(span("conformal.ScaleFactor", "outer_s"), "s"),
        "conformal.ScaleFactor.calls": per_round(span("conformal.ScaleFactor", "calls"), "calls"),
        "numerics.quadrature.s": per_round(span("numerics.quadrature", "outer_s"), "s"),
        "numerics.quadrature.nodes_per_point": (
            counts.get("numerics.quadrature.nodes", 0) / (rounds * points_per_round),
            "nodes/point"),
        "numerics.fd_derivative.s": per_round(span("numerics.fd_derivative", "total_s"), "s"),
        "numerics.fd_derivative.calls": per_round(span("numerics.fd_derivative", "calls"), "calls"),
        "conformal.closed_form.self_s": per_round(span("conformal.closed_form", "self_s"), "s"),
        "conformal.embed_special.s": per_round(span("conformal.embed_special", "total_s"), "s"),
        "conformal.special_residuals.s": per_round(
            span("conformal.special_residuals", "outer_s"), "s"),
        "frame_equations.residual_report.ns_per_point": ns_per_point(
            "frame_equations.residual_report"),
        "frame_equations.residual_report.points": per_round(rr_points, "points"),
        "frame_equations.field.ns_per_point": ns_per_point("frame_equations.field"),
        "frame_equations.jacobi.ns_per_point": ns_per_point("frame_equations.jacobi"),
        "frame_equations.bianchi.ns_per_point": ns_per_point("frame_equations.bianchi"),
        # computed from array sizes, not a measured memory traffic
        "frame_equations.jet_bytes_per_point": (
            counts.get("frame_equations.jet_bytes", 0) / rr_points if rr_points else 0.0,
            "B/point.computed"),
        "bench.trace_overhead_frac": (untraced_tput / traced_tput - 1.0, "frac"),
    }
