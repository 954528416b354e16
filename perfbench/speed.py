"""Host speed probe: puts pass and set-up times at a fixed reference speed.

The benchmark runs on a shared host.  Other tenants on the same physical
cores slow every instruction by up to a factor of two, in spells that last
seconds to minutes.  The slowdown is not steal time: CPU time grows with
wall time, so neither clock can tell it from a slower program.  Pass times
of one and the same program then spread by 20 to 50 % between runs.

The probe measures the host's speed while the program runs.  Every
PERIOD_S a SIGALRM handler runs ``probe_work``, a fixed computation that
imports nothing from fastslow.  It times the computation and hands control
back.  ``probe_work`` does what the workloads spend most of their time on:
small numpy array operations called from a Python loop, here 30 explicit
steps of a five-oscillator Kuramoto model.  A pass's time at reference speed
is

    (wall - time spent in the probe) * mean(REFERENCE_PROBE_S / probe time)

Because the probe samples at even wall-clock intervals, the mean of the
speed ratios is the share of reference speed the host gave over the pass.
No change to fastslow moves the probe, so a faster or slower program moves
this figure by the same factor as its wall time on a quiet host.
"""

from __future__ import annotations

import signal
import time

import numpy as np

# probe_work's time on an idle host, 2 vCPUs of an Intel Xeon (AVX-512),
# Python 3.11, numpy 2.4: the speed that the reported times refer to
REFERENCE_PROBE_S = 240e-6
PERIOD_S = 0.025
STEPS = 30

_RNG = np.random.default_rng(20231)
_THETA = _RNG.uniform(-np.pi, np.pi, 5)
_OMEGA = _RNG.uniform(-1.0, 1.0, 5)


def probe_work() -> np.ndarray:
    """The fixed computation that gauges the host's speed."""
    theta = _THETA
    for _ in range(STEPS):
        pull = np.sin(theta[None, :] - theta[:, None] - 0.7).mean(axis=1)
        theta = theta + 1e-3 * (_OMEGA + pull)
    return theta


def time_probe() -> float:
    t0 = time.perf_counter()
    probe_work()
    return time.perf_counter() - t0


def speed(samples) -> float:
    """Mean share of reference speed over probe times ``samples``."""
    if len(samples) == 0:
        raise ValueError("no probe samples")
    return float(np.mean(REFERENCE_PROBE_S / np.asarray(samples, dtype=float)))


def sample_speed(count: int) -> float:
    """Speed from ``count`` probe runs back to back, after one warm-up run.

    For spans too short to sample during, such as set-up: it runs right
    after them in the same process, most likely on the same vCPU.
    """
    time_probe()
    return speed([time_probe() for _ in range(count)])


class SpeedProbe:
    """Context manager that probes the host every PERIOD_S of wall time.

    It takes over SIGALRM and the real-time interval timer while active and
    restores both on exit.  ``samples`` collects the probe times of every
    ``with`` block, so one probe can cover several timed calls.
    """

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        self.samples: list = []
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(time_probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def at_reference_speed(self, wall_s: float) -> float:
        """``wall_s`` less the probes' own time, scaled to reference speed.

        A pass shorter than one period holds no sample; then one probe run
        now stands in for the host's speed.
        """
        samples = self.samples or [time_probe()]
        own = sum(self.samples)
        return (wall_s - own) * speed(samples)
