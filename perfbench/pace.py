"""The machine's pace, sampled while a call runs.

On a shared host the speed of one core drifts by 10-70 % within seconds and
stays slow or fast for minutes, as other tenants load the physical cores
under it. No statistic over one run's wall times removes a slow phase that
outlasts the run. So while a call runs, a timer interrupts it every
``INTERVAL_S`` and times ``probe()``, a fixed few-millisecond mix of
interpreter work and small numpy array arithmetic, the two kinds of work
gibem does. The call's wall time, less the time spent in the probes, times
``REFERENCE_PROBE_S`` over the median probe time, is the call's time at the
reference pace: what it takes when the probe takes ``REFERENCE_PROBE_S``.

The probe does not use gibem, so a change to the program reaches the pace
only through what the call leaves in the caches. ``REFERENCE_PROBE_S`` and
``probe()`` must not change, or paced times before and after the change
are not comparable.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Near the probe's median during calls on a 2-core Intel Xeon VM (Python
# 3.11.7, numpy 2.4.6), 1.4-1.9 ms. It sets the scale of paced times, not
# their spread.
REFERENCE_PROBE_S = 0.0015
INTERVAL_S = 0.2

_SOURCES = np.linspace(0.0, 1.0, 3 * 500).reshape(3, 500)
_TARGETS = np.linspace(2.0, 3.0, 3 * 24).reshape(3, 24)


def probe():
    """A fixed amount of interpreter and numpy work; returns its seconds."""
    started = time.perf_counter()
    total = 0.0
    for i in range(12000):
        total += (i % 7) * 0.5
    d = _SOURCES[:, :, None] - _TARGETS[:, None, :]
    r = np.sqrt((d * d).sum(axis=0))
    n = d / r
    np.einsum("ipq,jpq->ijq", n, n / r**2)
    return time.perf_counter() - started


class Pacer:
    """Context manager: times ``probe()`` every ``INTERVAL_S`` of its body.

    SIGALRM runs the probe between two bytecodes of the body, so it waits
    for a long numpy call to return. Leaving puts the previous handler back
    and disarms the timer.
    """

    def __init__(self):
        self.samples = []

    def _sample(self, signum=None, frame=None):
        self.samples.append(probe())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # seconds the body lost to the probes
        self.spent = sum(self.samples)
        if not self.samples:  # a body shorter than one interval
            self._sample()
        return False

    @property
    def probe_s(self):
        """Median probe time: the pace while the body ran."""
        return statistics.median(self.samples)

    def paced(self, seconds):
        """``seconds`` of the body, probes left out, at the reference pace."""
        return seconds * REFERENCE_PROBE_S / self.probe_s
