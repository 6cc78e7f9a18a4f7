"""Host-speed sampling, to take the shared host's drift out of timings.

On a shared virtual machine two things outside the program move its timings
by 10-40% from minute to minute: the CPU runs slower while other tenants load
the same cores, and the hypervisor deschedules the virtual CPUs ("steal").
A median over repetitions does not remove drift that slow, so `HostSpeed`
measures both while a repetition runs:

* every PERIOD_S a timer interrupts the repetition and times a fixed
  reference kernel (numpy FFT pairs) in CPU seconds, which steal does not
  inflate. `scale` is REFERENCE_S over the mean sample: below 1 while the CPU
  runs slower than nominal;
* `/proc/stat` gives each CPU's busy, idle and steal time over the
  repetition. Idle CPUs report steal too, so each CPU's steal counts in
  proportion to the share of its unstolen time it was busy. `unstolen` is
  busy / (busy + counted steal): the share of the busy CPUs' runnable time
  they actually ran. Multiplying an elapsed time by it removes the steal
  that delayed them.

The reference kernel touches no dispwave code and binds numpy's FFT before a
traced run wraps it, so neither factor changes when dispwave does.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.1
REFERENCE_S = 6e-4  # nominal CPU time of one sample: defines "nominal speed"
_PAIRS = 6
_rfft, _irfft = np.fft.rfft, np.fft.irfft


def _cpu_jiffies() -> dict[str, tuple[int, int, int]]:
    """(busy, idle, steal) jiffies of each CPU since boot; empty without /proc."""
    out = {}
    try:
        with open("/proc/stat") as fh:
            for line in fh:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit():
                    user, nice, system, idle, iowait, irq, softirq, steal = map(
                        int, fields[:8])
                    out[name] = (user + nice + system + irq + softirq, idle + iowait, steal)
    except (OSError, ValueError):
        return {}
    return out


def _unstolen(before: dict, after: dict) -> float:
    busy = stolen = 0.0
    for name, (b1, i1, s1) in after.items():
        b0, i0, s0 = before.get(name, (b1, i1, s1))
        b, i, s = b1 - b0, i1 - i0, s1 - s0
        busy += b
        if b + i > 0:
            stolen += s * b / (b + i)
    return busy / (busy + stolen) if busy > 0 else 1.0


class HostSpeed:
    """Context manager that samples the reference kernel on SIGALRM."""

    def __init__(self) -> None:
        self._x = np.random.default_rng(0).standard_normal(4096)
        self.samples: list[float] = []
        self.wall = 0.0  # seconds spent sampling, wall clock
        self.cpu = 0.0   # and CPU time of this process
        self.unstolen = 1.0

    def _pair(self) -> None:
        _irfft(_rfft(self._x), n=self._x.size)

    def sample(self, *_signal_args) -> None:
        start, cpu0 = time.perf_counter(), time.thread_time()
        self._pair()  # warms the kernel's data after the workload evicted it
        cpu1 = time.thread_time()
        for _ in range(_PAIRS):
            self._pair()
        cpu2 = time.thread_time()
        self.samples.append(cpu2 - cpu1)
        self.cpu += cpu2 - cpu0
        self.wall += time.perf_counter() - start

    @property
    def scale(self) -> float:
        return REFERENCE_S / statistics.fmean(self.samples)

    def __enter__(self) -> HostSpeed:
        self._jiffies = _cpu_jiffies()
        self.sample()  # short repetitions still get one sample
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)  # disarm before the handler goes
        signal.signal(signal.SIGALRM, self._previous)
        self.unstolen = _unstolen(self._jiffies, _cpu_jiffies())
