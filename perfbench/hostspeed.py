"""Host speed, sampled by timing a fixed pure-Python loop.

On a shared virtual machine the CPU runs at a speed that drifts by up to
about 1.5x, in phases of seconds to minutes; process CPU time drifts with
it, so neither wall nor CPU time of one run compares with another run made
a few minutes later.  The benchmark therefore times a fixed loop beside the
program and counts the program's time in *reference seconds*: a stretch of
wall time multiplied by how fast the loop ran meanwhile, relative to
REF_RATE.  A change to the program moves its wall time and not the loop's,
so it moves the reference time by the same factor.

`HostClock.start()` samples the loop every INTERVAL_S from a SIGALRM
handler, which Python runs in the main thread between bytecodes.  The loop
is timed by the CPU time of that thread, so a sample taken while the
program's own threads hold the cores still measures the speed of the CPU
and not the wait for it.  Time spent sampling is kept out of `net()`, the
clock operations are timed with.
"""

import signal
import time

LOOP = 20_000          # iterations of one sample of the reference loop
REF_RATE = 1.0e7       # loop iterations per second of a reference host
INTERVAL_S = 0.1       # timer period while sampling in the background


def reference_loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return s


class HostClock:
    def __init__(self):
        self.samples: list = []   # (perf_counter at start, host speed)
        self.spent = 0.0          # seconds spent sampling so far

    def sample(self) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        reference_loop()
        cpu = time.thread_time() - cpu
        self.samples.append((start, LOOP / cpu / REF_RATE))
        self.spent += time.perf_counter() - start

    def _on_alarm(self, signum, frame) -> None:
        self.sample()

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)

    def net(self) -> float:
        """A clock in seconds that stands still while the loop is sampled."""
        return time.perf_counter() - self.spent

    def speed(self, start: float, end: float) -> float:
        """Mean host speed of the samples taken between two perf_counter readings."""
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            raise RuntimeError("no host speed sample in the interval")
        return sum(inside) / len(inside)
