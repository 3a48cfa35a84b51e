"""The pace meter scales by its samples, subtracts its interrupts and restores SIGALRM."""

import signal
import time

import pytest

import pace


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass
    return "done"


def test_meter_samples_through_the_call_and_scales_by_their_mean():
    meter = pace.Meter()
    assert meter.run(lambda: _busy(0.1)) == "done"
    # One sample before, one after and one per interrupt in between.
    assert len(meter.speeds) >= 2 + int(0.1 / pace.INTERVAL_S) - 2
    assert 0.08 < meter.raw_s < 0.11
    assert meter.seconds == pytest.approx(meter.raw_s * sum(meter.speeds) / len(meter.speeds))


def test_meter_restores_the_signal_and_timer_even_when_the_call_raises():
    def own(*_):
        pass

    previous = signal.signal(signal.SIGALRM, own)
    try:
        meter = pace.Meter()
        with pytest.raises(ZeroDivisionError):
            meter.run(lambda: _busy(0.05) and 1 / 0)
        assert signal.getsignal(signal.SIGALRM) is own
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert meter.raw_s > 0.04 and meter.seconds > 0
    finally:
        signal.signal(signal.SIGALRM, previous)
