"""Host-speed correction of the benchmark's timings.

The benchmark's reference host is a few vCPUs of a shared machine whose
speed drifts: for fractions of a second to minutes at a time every kind of
work, a pure-Python loop as much as the numpy kernels, runs up to about 1.5
times slower.  CPU time slows with wall time, so the process is not
waiting: the CPU it is given is slower.  Raw wall times of whole runs then
spread by about 20%.

``timed`` runs a piece of work and, every PERIOD_S of wall time while it
runs, a short fixed pure-Python loop from a SIGALRM handler in the main
thread.  It reports the work's time raw and scaled to the host speed at
which the loop takes REF_LOOP_S::

    scaled = raw * REF_LOOP_S / mean(loop times sampled during the work)

The loop is benchmark code, so a change to the program moves the work's
time and not the loop.  The samples are taken inside the timed window
because the host's speed changes within a second: a loop timed only before
an op followed a 1.7-s solve op worse than no correction at all.
"""

from __future__ import annotations

import signal
import statistics
import time

LOOP_ITERATIONS = 20_000
PERIOD_S = 0.05  # the loop then takes about 3% of the wall time

# loop_s() on the reference host (2-vCPU Xeon, Python 3.11) in its fast
# state; it only fixes the scale in which the scaled times are reported
REF_LOOP_S = 0.0012


def loop_s() -> float:
    """Wall time of the reference loop, which touches no memory beyond a few
    Python integers."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(LOOP_ITERATIONS):
        acc += i * i
    return time.perf_counter() - t0


def timed(fn, *args, child: bool = False):
    """Run ``fn(*args)`` in the main thread; return ``(result, raw_s,
    scaled_s)``.

    The sampler's handler interrupts ``fn`` (between bytecodes, or a system
    call that is then retried), so its time is taken out of ``raw_s``; with
    ``child=True``, where ``fn`` only waits for another process, the
    handler does not delay the measured work and nothing is taken out.
    Work shorter than PERIOD_S is scaled by one loop timed after it."""
    loops: list[float] = []
    spent = 0.0

    def tick(signum, frame):
        nonlocal spent
        t0 = time.perf_counter()
        loops.append(loop_s())
        spent += time.perf_counter() - t0

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    t0 = time.perf_counter()
    try:
        result = fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        elapsed = time.perf_counter() - t0
        signal.signal(signal.SIGALRM, previous)
    raw = elapsed if child else elapsed - spent
    if not loops:
        loops.append(loop_s())
    return result, raw, raw * REF_LOOP_S / statistics.fmean(loops)
