"""Machine-speed probe used to express times in reference seconds.

On the reference box, a shared 2-vCPU virtual machine, the speed of a
CPU changes by up to 2x in episodes that last from milliseconds to
minutes (other tenants of the host), far more than the bounds the
benchmark fixes.  So every timed interval is scaled by REFERENCE_S /
(mean probe time next to and during it).  The probe kernel uses no
selfdual code: a change to the program moves the scaled times exactly
as it moves the raw ones, while a slower machine slows the kernel too
and cancels out.
"""
import signal
import time

# the kernel's time on the reference box (2-core x86, Python 3.11) in
# its fast state; a constant, so scaled times compare across commits
REFERENCE_S = 0.002
SAMPLE_EVERY_S = 0.15
BOUNDARY_RUNS = 3  # kernel runs of a probe between two timed intervals


def probe(runs: int = 1) -> float:
    """Seconds one run of the fixed kernel takes now, the mean of ``runs``."""
    start = time.perf_counter()
    # tuple and small-int arithmetic shaped like the field code
    p, acc, mod = 47, (1, 2, 3), (5, 0, 1)
    for i in range(1700 * runs):
        b = (i % p, (i * 7) % p, (i * 13) % p)
        prod = [0] * 5
        for x, ai in enumerate(acc):
            if ai:
                for y, bj in enumerate(b):
                    prod[x + y] += ai * bj
        for d in (4, 3):
            lead = prod[d] % p
            if lead:
                for j in range(3):
                    prod[d - 3 + j] -= lead * mod[j]
        acc = tuple(v % p for v in prod[:3])
    return (time.perf_counter() - start) / runs


class Sampler:
    """Probes every SAMPLE_EVERY_S from a SIGALRM handler while active.

    Long operations span several speed episodes, so probes taken only
    before and after them would misjudge their speed.  ``spent`` is the
    time the handler took; callers subtract it from what they time.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - start

    def take(self) -> tuple[list[float], float]:
        """The samples and handler time since the last take()."""
        out = (self.samples, self.spent)
        self.samples, self.spent = [], 0.0
        return out

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return False
