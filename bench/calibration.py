"""Machine-speed calibration of op latencies.

The shared host this benchmark was built on changes speed by 10-50%
within seconds to minutes, for all code alike. The runner therefore
times a fixed calibration job after every `every` seconds of op time,
and scales each op's latency by `nominal` over the median job time
within `window` seconds of the op: the op is reported at one reference
speed. The jobs never run library code, so no change to the library can
move the scale. Measured on one host, scaled times cut the spread of
chunk medians of a repeated op from 31% to 3% (in-process) and from 6%
to 5% (child processes).
"""

import gc
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class _Elem:
    orders: tuple
    coords: tuple

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(
            int(c) % n for c, n in zip(self.coords, self.orders)))


_MATRIX = [[(3 * i + 5 * j) % 7 - 3 + (7 if i == j else 0)
            for j in range(6)] for i in range(6)]


def python_job():
    """About 4 ms of work shaped like the library's hot paths: element
    arithmetic through a validating frozen dataclass, a Fraction
    Gauss-Jordan inverse and an integer matrix product. The cyclic
    collector is off, so that its pauses, which depend on what the ops
    left on the heap, stay out."""
    gc.disable()
    try:
        orders = (3, 5)
        acc = _Elem(orders, (0, 0))
        for i in range(150):
            step = _Elem(orders, (i, 2 * i))
            acc = _Elem(orders, tuple(a + 2 * b for a, b in
                                      zip(acc.coords, step.coords)))
        n = len(_MATRIX)
        M = [[Fraction(x) for x in row] + [Fraction(int(i == j))
                                           for j in range(n)]
             for i, row in enumerate(_MATRIX)]
        for col in range(n):
            piv = next(r for r in range(col, n) if M[r][col] != 0)
            M[col], M[piv] = M[piv], M[col]
            inv = 1 / M[col][col]
            M[col] = [x * inv for x in M[col]]
            for r in range(n):
                if r != col and M[r][col]:
                    f = M[r][col]
                    M[r] = [x - f * y for x, y in zip(M[r], M[col])]
        P = [[sum(a * b for a, b in zip(row, col))
              for col in zip(*_MATRIX)] for row in _MATRIX]
        return acc.coords, M[0][n], P[0][0]
    finally:
        gc.enable()


def interpreter_job():
    """Start and stop a bare interpreter, as every CLI call does."""
    subprocess.run([sys.executable, "-c", "pass"], check=True)


@dataclass(frozen=True)
class Calibration:
    job: object
    nominal: float      # job seconds at the reference speed
    every: float        # op seconds between two samples
    window: float       # samples within this many seconds of an op count

    def scale(self, midpoints, latencies, cal_times, cal_lengths):
        out = []
        for mid, lat in zip(midpoints, latencies):
            lo = bisect_left(cal_times, mid - self.window)
            hi = bisect_right(cal_times, mid + self.window)
            near = cal_lengths[lo:hi] or cal_lengths
            out.append(lat * self.nominal / statistics.median(near))
        return out


IN_PROCESS = Calibration(python_job, nominal=0.004, every=0.05, window=0.5)
CHILD_PROCESS = Calibration(interpreter_job, nominal=0.07, every=0.2,
                            window=1.0)
