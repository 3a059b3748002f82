"""How fast the host runs, sampled while the benchmark works.

On a shared host the same pass ran up to twice as slow for stretches of
one second to several minutes, with the process on the CPU the whole time;
no run of tolerable length averages that out.  `Sampler` therefore times a
small fixed kernel ten times a second, from a SIGALRM handler on the main
thread, while the passes run.  The kernel does the kind of work the ray
core does (small numpy vectors, norms, dot and cross products, a validating
frozen dataclass) but calls no rayspace code, so a change to the program
does not move it.  A time measured while samples were taken, multiplied by
REFERENCE_S over their mean, is in seconds at the reference speed: the
speed of the host when the kernel takes REFERENCE_S.

Do not change the kernel or REFERENCE_S: results before and after such a
change cannot be compared.
"""

from __future__ import annotations

import signal
import statistics
import time
from dataclasses import dataclass

import numpy as np

# the unit of reference seconds: chosen so that on an Intel Xeon host with
# 2 vCPUs, Python 3.11.7 and numpy 2.4.6, running at its fastest, a pass
# takes about as many reference seconds as wall seconds
REFERENCE_S = 1.2e-3
INTERVAL_S = 0.1
_ITERATIONS = 25
_RNG = np.random.default_rng(0)
_POINTS = _RNG.normal(size=(_ITERATIONS, 3))
_DIRECTIONS = _RNG.normal(size=(_ITERATIONS, 3))
_CENTRE = np.array([0.1, 0.2, 0.3])


@dataclass(frozen=True)
class _Ray:
    u: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        norm = float(np.linalg.norm(u))
        if not norm > 0.0:
            raise ValueError("zero direction")
        object.__setattr__(self, "u", u / norm)


def sample() -> float:
    """Seconds of one run of the kernel."""
    start = time.perf_counter()
    total = 0.0
    for p, d in zip(_POINTS, _DIRECTIONS):
        ray = _Ray(d, p)
        rel = ray.q - _CENTRE
        b = float(rel @ ray.u)
        disc = b * b - float(rel @ rel) + 4.0
        x = ray.q + (-b + np.sqrt(abs(disc))) * ray.u
        normal = (x - _CENTRE) / np.linalg.norm(x - _CENTRE)
        v = ray.u - 2.0 * float(ray.u @ normal) * normal
        total += float(np.cross(v, normal) @ x)
    return time.perf_counter() - start


def mean_sample(count: int = 10) -> float:
    """Mean of `count` back-to-back samples, after one untimed warm-up run."""
    sample()
    return statistics.fmean(sample() for _ in range(count))


class Sampler:
    """Kernel samples every INTERVAL_S of wall time while the context is open.

    `samples` holds (perf_counter time, kernel seconds) pairs; `stolen` is
    the wall time spent sampling, which timed work subtracts.
    """

    def __init__(self):
        self.samples = []
        self.stolen = 0.0
        self._previous = None

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, sample()))
        self.stolen += time.perf_counter() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the mean sample in [start, end], or the nearest one."""
        if not self.samples:
            self._tick(None, None)
        inside = [s for t, s in self.samples if start <= t <= end]
        if not inside:
            inside = [min(self.samples, key=lambda ts: abs(ts[0] - 0.5 * (start + end)))[1]]
        return REFERENCE_S / statistics.fmean(inside)
