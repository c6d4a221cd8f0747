"""One workload process of the f13 benchmark.

Run by ``run.py`` in an op directory, which holds the ``ops.json`` written
by ``inputs.generate`` and the inputs its ops name::

    python3 worker.py --src <checkout>/src --result result.json \
        --mode setup|timed [--warmup-dir DIR] [--seconds S] [--trace 0|1]

``setup`` runs every op once and nothing else, so the parent can time a
fresh interpreter.  ``timed`` runs the ops of ``--warmup-dir`` (the same
ops at the smallest size) once, then closed-loop rounds (every op once, in
order, by one caller) until ``--seconds`` of op time have been timed, and
reports each round's op time raw and scaled to the reference host speed
(``hostspeed``); with ``--trace 1`` it then installs the layer wrappers and
runs half as many traced rounds (at least one).  After each round, outside
the timed region, it hashes every output CSV, so the parent can check that
repeated invocations of one config write identical bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys

import hostspeed
import tracing


def _run_op(main, op) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(op["argv"])
    lines = out.getvalue().splitlines()
    return {"exit": code, "last": lines[-1] if lines else ""}


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _round(main, ops, log) -> tuple[float, float]:
    """One round; returns its op time, raw and scaled to the reference host
    speed by ``hostspeed.timed``, and appends each op's outcome and output
    hash to ``log``."""
    raw = scaled = 0.0
    results = []
    for op in ops:
        res, op_raw, op_scaled = hostspeed.timed(_run_op, main, op)
        results.append(res)
        raw += op_raw
        scaled += op_scaled
    for op, res in zip(ops, results):
        if op["csv"] is not None:
            res["sha256"] = _sha256(op["csv"]) if os.path.exists(op["csv"]) else None
    log += results
    return raw, scaled


def _timed_rounds(main, ops, seconds: float, log) -> list[tuple[float, float]]:
    """Rounds until ``seconds`` of raw op time are timed, stopping early
    rather than late when the next round would overshoot by more than half
    a round."""
    times = [_round(main, ops, log)]
    while (spent := sum(raw for raw, _ in times)) + 0.5 * spent / len(times) < seconds:
        times.append(_round(main, ops, log))
    return times


def _load_ops(opdir: str = ".") -> list[dict]:
    with open(os.path.join(opdir, "ops.json"), encoding="utf-8") as fh:
        return json.load(fh)


def main_worker(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--src", required=True)
    ap.add_argument("--warmup-dir", help="op directory whose ops.json is run once before "
                    "the timed rounds")
    ap.add_argument("--result", required=True)
    ap.add_argument("--mode", choices=("setup", "timed"), required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    sys.path.insert(0, args.src)
    from f13.cli import main

    ops = _load_ops()
    result: dict = {}
    if args.mode == "setup":
        result["ops"] = [_run_op(main, op) for op in ops]
    else:
        # the warm-up pays the imports, lazy ones included, at the smallest size
        here = os.getcwd()
        os.chdir(args.warmup_dir)
        try:
            result["warmup"] = [_run_op(main, op) for op in _load_ops()]
        finally:
            os.chdir(here)
        timed: list = []
        result["round_s"], result["round_scaled_s"] = map(
            list, zip(*_timed_rounds(main, ops, args.seconds, timed)))
        result["ops"] = timed
        if args.trace:
            recorder = tracing.Recorder()
            uninstall = tracing.install(recorder)
            traced: list = []
            try:
                # half as many rounds as untraced (at least one) keeps a
                # traced run short; every round does the same work
                result["traced_round_scaled_s"] = [_round(main, ops, traced)[1]
                                                   for _ in result["round_s"][::2]]
            finally:
                uninstall()
            result["ops"] += traced
            result["trace"] = recorder.summary()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main_worker())
