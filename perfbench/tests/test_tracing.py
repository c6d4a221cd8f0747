import contextlib
import io
import os
import threading

import f13.cli
import f13.conformal
import inputs
import pytest
import tracing


class ScriptedClock:
    """perf_counter_ns stand-in: each thread reads its own list of ticks."""

    def __init__(self):
        self._local = threading.local()

    def script(self, ticks):
        self._local.ticks = iter(ticks)

    def __call__(self):
        return next(self._local.ticks)


def _nested(rec):
    # outer [0, 100] holds inner [10, 40] and inner [50, 90]; the second
    # inner holds leaf [60, 70]
    with rec.span("outer"):
        with rec.span("inner"):
            pass
        with rec.span("inner"):
            with rec.span("leaf"):
                pass


NESTED_TICKS = [0, 10, 40, 50, 60, 70, 90, 100]


def _assert_nested(spans, factor=1):
    s = 1e-9 * factor
    assert spans["outer"]["calls"] == 1 * factor
    assert spans["outer"]["total_s"] == pytest.approx(100 * s)
    assert spans["outer"]["self_s"] == pytest.approx(30 * s)
    assert spans["inner"]["calls"] == 2 * factor
    assert spans["inner"]["total_s"] == pytest.approx(70 * s)
    assert spans["inner"]["self_s"] == pytest.approx(60 * s)
    assert spans["leaf"]["self_s"] == pytest.approx(10 * s)


def test_self_time_of_nested_spans():
    clock = ScriptedClock()
    rec = tracing.Recorder(clock)
    clock.script(NESTED_TICKS)
    _nested(rec)
    _assert_nested(rec.summary()["spans"])


def test_self_time_with_spans_from_two_threads():
    """Two threads nest spans at the same time; a span's parent is the span
    open in its own thread, so each thread's self times stay exact."""
    clock = ScriptedClock()
    rec = tracing.Recorder(clock)
    barrier = threading.Barrier(2, timeout=10)
    errors = []

    def worker():
        try:
            clock.script(NESTED_TICKS)
            with rec.span("outer"):
                barrier.wait()  # both threads hold an open span here
                with rec.span("inner"):
                    pass
                with rec.span("inner"):
                    with rec.span("leaf"):
                        pass
            rec.count("items", 3)
        except Exception as exc:  # surfaced by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads) and not errors
    summary = rec.summary()
    _assert_nested(summary["spans"], factor=2)
    assert summary["counts"] == {"items": 6}


def test_outer_time_counts_a_nested_same_name_span_once():
    clock = ScriptedClock()
    rec = tracing.Recorder(clock)
    clock.script([0, 10, 20, 30, 40, 50, 60, 70])
    with rec.span("quad"):          # [0, 70]
        with rec.span("other"):     # [10, 60]
            with rec.span("quad"):  # [20, 30]
                pass
            with rec.span("leaf"):  # [40, 50]
                pass
    spans = rec.summary()["spans"]
    assert spans["quad"]["total_s"] == pytest.approx(80e-9)
    assert spans["quad"]["outer_s"] == pytest.approx(70e-9)


def test_wrap_counts_results_and_exceptions():
    rec = tracing.Recorder()

    def fn(x):
        if x < 0:
            raise ValueError("negative")
        return x

    traced = rec.wrap(fn, "fn", lambda args, outcome: {"seen": 1, "errors": isinstance(
        outcome, ValueError)})
    assert traced(2) == 2
    with pytest.raises(ValueError):
        traced(-1)
    summary = rec.summary()
    assert summary["spans"]["fn"]["calls"] == 2
    assert summary["counts"] == {"seen": 2, "errors": 1}


def test_install_wraps_the_cli_layers_and_uninstall_restores_them(tmp_path):
    originals = {(spec, attr): getattr(tracing._owner(spec), attr)
                 for spec, attr, _, _ in tracing.LAYER_PATCHES}
    ops = inputs.generate("solve_ode", 0, str(tmp_path), small=True)
    rec = tracing.Recorder()
    uninstall = tracing.install(rec)
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            for op in ops:
                f13.cli.main(op["argv"])
    finally:
        os.chdir(cwd)
        uninstall()
    for (spec, attr), fn in originals.items():
        assert getattr(tracing._owner(spec), attr) is fn
    assert f13.conformal.ScaleFactor.__call__ is originals[("f13.conformal:ScaleFactor",
                                                            "__call__")]
    summary = rec.summary()
    counts, spans = summary["counts"], summary["spans"]
    # three ops each write N + 1 = 5 rows, unless the pole stops one early
    assert 0 < counts["cli.write_csv.rows"] <= 3 * (inputs.SMALL_N + 1)
    assert spans["conformal.rhs"]["calls"] == 4 * counts["numerics.rk4_integrate.steps"]
    assert spans["numerics.rk4_integrate"]["self_s"] > 0
    assert counts["frame_equations.residual_report.points"] > 0
