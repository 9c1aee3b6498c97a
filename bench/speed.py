"""Host-speed probe: times reported at a fixed reference speed of the host.

On a shared host the same instructions run at very different rates from
one moment to the next: on the 2-vCPU VM this benchmark was written on, a
fixed pure-Python loop took anywhere from 7 to 50 ms, the slow spells
lasting from a fraction of a second to minutes, with no steal time and CPU
time equal to wall time. A pass timed by the wall clock alone therefore
varies by 15-20% between runs of the same code.

The probe samples the host's speed inside the measured process, on the
thread that runs the workload: a wall-clock interval timer interrupts the
pass every ``TICK_S`` and times one short fixed kernel, alternating a
pure-Python loop (``py``) and a small-matrix numpy loop (``np``). The mean
kernel time over a pass, against the fixed ``REF_S``, is the host's
slowdown factor during that pass. A time is reported as

    (raw time - time spent in the probe) / slowdown factor

that is, in seconds at the reference speed. Work the program saves or adds
changes it one for one; the host's speed cancels out. The probe costs about
2% of a pass, and it is subtracted. It does not see the load that other
tenants put on the memory system, so a pass that streams more data than
the caches hold (``scaled_ovr``) still varies with that load.
"""

from __future__ import annotations

import signal
import time

TICK_S = 0.025
# Kernel times that define the reference speed: typical of those seen during
# passes on an Intel Xeon 2-vCPU VM. Only their ratio to the measured times
# matters, so a time is comparable only with times under the same REF_S.
REF_S = {"py": 5.5e-4, "np": 2.6e-4}


def _kernel_py() -> float:
    s = 0.0
    for i in range(3000):
        s += (i % 7) * 0.5
    return s


class SpeedProbe:
    """Samples the host's speed on a wall-clock timer until ``stop``."""

    def __init__(self):
        self.probe_s = 0.0                      # wall time spent in kernels
        self.sums = {"py": 0.0, "np": 0.0}
        self.counts = {"py": 0, "np": 0}
        self._kernels = [("py", _kernel_py)]
        self._turn = 0
        self._busy = False
        self._previous = None

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def add_numpy_kernel(self) -> None:
        """Alternate with a small-matrix numpy kernel once numpy is imported."""
        import numpy as np

        m = np.linspace(-1.0, 1.0, 64 * 32).reshape(64, 32)
        w0 = np.ones(32)

        def kernel_np() -> float:
            w = w0
            for _ in range(60):
                w = np.tanh(m @ w)[:32]
            return float(w[0])

        self._kernels.append(("np", kernel_np))

    def _tick(self, _signum, _frame) -> None:
        if self._busy:
            return
        self._busy = True
        name, kernel = self._kernels[self._turn % len(self._kernels)]
        self._turn += 1
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.sums[name] += dt
        self.counts[name] += 1
        self.probe_s += dt
        self._busy = False

    def mark(self) -> tuple:
        return self.probe_s, dict(self.sums), dict(self.counts)

    def normalise(self, raw_s: float, since: tuple) -> tuple:
        """(time at the reference speed, slowdown factor) for a span begun at ``since``."""
        probe0, sums0, counts0 = since
        ratios = [(self.sums[k] - sums0[k]) / (self.counts[k] - counts0[k]) / REF_S[k]
                  for k in REF_S if self.counts[k] > counts0[k]]
        if not ratios:  # a span shorter than one tick: no sample to scale by
            return raw_s, 1.0
        factor = sum(ratios) / len(ratios)
        return (raw_s - (self.probe_s - probe0)) / factor, factor
