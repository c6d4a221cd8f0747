"""Benchmark of the f13 CLI: seeded inputs, timed workloads, output oracle.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve_ode --seed 0 --seconds 40 --trace 0

It generates the workload's inputs from the seed under ``perfbench/_work``,
times a fresh interpreter that runs each op once at the smallest legal size
(``setup_s``, median of SETUP_SAMPLES), then runs the workload in one worker
process against ``src/f13`` of the checkout: a warm-up that runs the ops
once at the smallest size, then closed-loop rounds for ``--seconds``.
Every time a metric reports is scaled to the reference host speed by
``hostspeed.timed``; the raw wall-clock figures are printed beside them.
Every invocation is checked by ``oracle.py``.  The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
traced run with ``--trace 1``.  The workloads, metrics and predictions are
described in ``design.json``.

``--record-hashes`` stores the sha256 of every output CSV of this seed in
``hashes.json``; the oracle compares later runs of that seed against it.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
import tracing  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "_work")
HASHES = os.path.join(HERE, "hashes.json")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 5
DEADLINE_S = 170.0  # the whole run, set-up included, ends before this


class BenchError(Exception):
    pass


def _worker(mode: str, opdir: str, env: dict, timeout: float, extra=()) -> dict:
    result = os.path.join(opdir, f"{mode}_result.json")
    cmd = [sys.executable, WORKER, "--src", SRC, "--result", result, "--mode", mode, *extra]
    proc = subprocess.run(cmd, cwd=opdir, env=env, timeout=max(timeout, 1.0),
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    with open(result, encoding="utf-8") as fh:
        return json.load(fh)


def _write_ops(opdir: str, ops: list[dict]) -> None:
    with open(os.path.join(opdir, "ops.json"), "w", encoding="utf-8") as fh:
        json.dump(ops, fh, indent=1)


def _csv_rows(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(block.count(b"\n") for block in iter(lambda: fh.read(1 << 20), b"")) - 1


def _points_per_round(ops: list[dict], opdir: str) -> int:
    return sum(op["grid_points"] if op["points"] == "grid"
               else _csv_rows(os.path.join(opdir, op["csv"])) for op in ops)


def _recorded_hashes(workload: str, seed: int):
    if not os.path.exists(HASHES):
        return None
    with open(HASHES, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def _record_hashes(workload: str, seed: int, ops: list[dict], log: list[dict]) -> None:
    table = {}
    if os.path.exists(HASHES):
        with open(HASHES, encoding="utf-8") as fh:
            table = json.load(fh)
    hashes = {op["name"]: res["sha256"] for op, res in zip(ops, log) if op["csv"] is not None}
    if not hashes:
        return
    table.setdefault(workload, {})[str(seed)] = hashes
    with open(HASHES, "w", encoding="utf-8") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")


def machine_facts(workload: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "F13_THREADS": inputs.THREADS[workload],
    }


def run(workload: str, seed: int, seconds: float, trace: bool,
        record: bool = False) -> dict:
    t_start = time.perf_counter()
    if not os.path.isfile(os.path.join(SRC, "f13", "cli.py")):
        raise BenchError(f"no f13 sources under {SRC}; run from the root of an f13 checkout")
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    full, small = os.path.join(workdir, "full"), os.path.join(workdir, "small")
    ops = inputs.generate(workload, seed, full)
    small_ops = inputs.generate(workload, seed, small, small=True)
    _write_ops(full, ops)
    _write_ops(small, small_ops)
    env = dict(os.environ, F13_THREADS=str(inputs.THREADS[workload]))

    problems: list[str] = []
    small_runs = []  # (label, results) of every run of the smallest-size ops
    setup_times = []  # (raw, scaled to the reference host speed)
    # a traced run reports no setup_s, so it skips the set-up probes
    for k in range(0 if trace else SETUP_SAMPLES):
        res, *times = hostspeed.timed(
            _worker, "setup", small, env, DEADLINE_S - (time.perf_counter() - t_start),
            child=True)
        setup_times.append(times)
        small_runs.append((f"set-up {k}", res["ops"]))

    res = _worker("timed", full, env, DEADLINE_S - (time.perf_counter() - t_start),
                  ["--warmup-dir", small, "--seconds", repr(float(seconds)),
                   "--trace", "1" if trace else "0"])
    log = res["ops"]
    if record:
        _record_hashes(workload, seed, ops, log)
    failed, found = oracle.judge(ops, log, full, _recorded_hashes(workload, seed))
    problems += found
    small_runs.append(("warm-up", res["warmup"]))
    for label, results in small_runs:
        for op, r in zip(small_ops, results):
            found = oracle.setup_problems(op, r)
            failed += bool(found)
            problems += [f"{label} {op['name']}: {p}" for p in found]
    attempted = len(log) + len(small_runs) * len(small_ops)

    points = _points_per_round(ops, full)
    rounds = res["round_scaled_s"]
    tput = points * len(rounds) / sum(rounds)
    raw = {"setup_s": statistics.median(t for t, _ in setup_times) if setup_times else None,
           "throughput_pts_s": points * len(rounds) / sum(res["round_s"]),
           "round_s_p50": statistics.median(res["round_s"])}
    if trace:
        traced = res["traced_round_scaled_s"]
        metrics = tracing.layer_metrics(
            res["trace"], len(traced), points, inputs.THREADS[workload],
            untraced_tput=tput, traced_tput=points * len(traced) / sum(traced))
    else:
        metrics = {
            "setup_s": (statistics.median(t for _, t in setup_times), "s"),
            "throughput_pts_s": (tput, "points/s"),
            "round_s_p50": (statistics.median(rounds), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "ok_frac": (1.0 - failed / attempted, "frac"),
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "info": {"points_per_round": points, "rounds": len(rounds),
                 "setup_samples": len(setup_times), "problems": problems, "raw": raw},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-hashes", action="store_true")
    args = ap.parse_args(argv)
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace),
                  record=args.record_hashes)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    info = out.pop("info")
    facts = machine_facts(args.workload)
    print(f"workload={args.workload} seed={args.seed} "
          + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"points_per_round={info['points_per_round']} rounds={info['rounds']} "
          f"setup_samples={info['setup_samples']}")
    for name, m in out["metrics"].items():
        print(f"{name:<48s} {m['value']:.6g} {m['unit']}")
    print("raw wall clock, not scaled to the reference host speed: "
          + " ".join(f"{k}={v:.6g}" for k, v in info["raw"].items() if v is not None))
    for p in info["problems"][:20]:
        print(f"oracle: {p}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
