"""The machine's speed, sampled beside the code being timed.

On a shared virtual machine each vCPU switches, within seconds and
independently of the other, between speeds up to about 1.8x apart.  Process
CPU time slows down with it, so wall and CPU times of identical work scatter
that widely, and a reference timed only before and after a pass misses the
switches inside it.  A SpeedSampler therefore interrupts the process every
INTERVAL_S seconds (SIGALRM, handled in the main thread between bytecodes)
and times one reference sample: a short loop of interpreted float and dict
work and small sparse matrix-vector products, the kinds of work rootopt does.
An interval is then rescaled to the time it would have taken at the speed
where one sample takes REF_SAMPLE_S:

    scaled = (raw - time spent in samples) * REF_SAMPLE_S / mean sample time

REF_SAMPLE_S is about the sample time on an uncontended vCPU of an Intel Xeon
server, so scaled times read close to the fastest raw times there.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp

INTERVAL_S = 0.1
REF_SAMPLE_S = 0.0008
_N = 24
_A = sp.diags([-1.0, -1.0, 4.0, -1.0, -1.0], [-_N, -1, 0, 1, _N],
              shape=(_N * _N, _N * _N), format="csr")


class SpeedSampler:
    def __init__(self):
        self.samples = []

    def _sample(self, *_):
        start = perf_counter()
        acc = 0.0
        seen = {}
        for i in range(3000):
            x = math.hypot(i * 0.5, 3.0)
            acc += x
            seen[i & 1023] = x
        v = np.full(_N * _N, acc)
        for _ in range(20):
            v = _A @ v
            v /= np.linalg.norm(v)
        self.samples.append(perf_counter() - start)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        """The position to pass to `scaled` for an interval starting now."""
        return len(self.samples)

    def scaled(self, raw, since):
        """`raw` seconds that began at mark `since` and end now, at reference
        speed.  An interval too short to hold a sample is scaled by one taken
        at its end."""
        held = self.samples[since:]
        if not held:
            self._sample()
            return raw * REF_SAMPLE_S / self.samples[-1]
        spent = sum(held)
        return (raw - spent) * REF_SAMPLE_S * len(held) / spent
