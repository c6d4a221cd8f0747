import time

import hostspeed


def test_timed_returns_the_result_and_a_raw_time_without_the_sampler():
    def work():
        t_end = time.perf_counter() + 0.3
        while time.perf_counter() < t_end:
            pass
        return "done"

    result, raw, scaled = hostspeed.timed(work)
    assert result == "done"
    # the sampler's share of the 0.3 s is taken out of the raw time
    assert 0.2 < raw < 0.3
    assert scaled > 0.0


def test_timed_child_work_keeps_the_whole_wall_time():
    _, raw, _ = hostspeed.timed(time.sleep, 0.2, child=True)
    assert raw >= 0.2


def test_timed_restores_the_previous_alarm_handler():
    import signal
    before = signal.getsignal(signal.SIGALRM)
    hostspeed.timed(time.sleep, 0.12)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
