"""Machine-speed calibration interleaved with a round.

The machine the benchmark was built on is shared: its speed drifts by
±20% over tens of seconds to minutes, and a round's time moves with it.
The worker therefore runs a fixed piece of code, a calibration unit, in
slices: one before the first case, then every `TICK_S` from an interval
timer (SIGALRM), inside cases as well as between them, and one after the
last report.  Each slice lasts about `SHARE` of the time since the last.
The mean time per unit over the round measures the machine's speed while
the round ran.  run.py divides it into the round's own time (calibration
excluded), and scales by the unit time of the reference machine,
`UNIT_REF_S`.  The result reads as the round's time on the reference
machine.

Two kinds of unit, to match the work they stand beside:

- `py`: a product of two sparse bivariate polynomials with big-integer
  coefficients in a tuple-keyed dict, a gcd over its coefficients and
  some `Fraction` arithmetic, like the exact engine's MPoly and
  FieldElement code;
- `mixed`: the `py` unit plus complex `log`/`exp` on numpy arrays, like
  the elliptic-gamma kernel and the quadrature rules.

The units are code of the benchmark's own and never change between the
commits compared, so a change to the program moves only the round time.
"""

from __future__ import annotations

import math
import signal
import time
from fractions import Fraction

SHARE = 0.12           # calibration time per second of round time
TICK_S = 0.25          # interval of the timer that starts slices
FIRST_UNITS = 10       # the slice before the first case

# Seconds per unit on the reference machine (a 2-vCPU Xeon VM; medians of
# 300 units each).  They fix the scale of the normalised times and the
# number of units in a slice, nothing else.
UNIT_REF_S = {"py": 0.0030, "mixed": 0.0055}

# Two bivariate polynomials as {exponent tuple: int coefficient}, with
# coefficients of 40 to 70 bits, as the exact engine's MPoly holds them.
_F = {(i, j): (3 ** (20 + i + 2 * j)) % 1000003 * 7 ** 15 + 1
      for i in range(6) for j in range(5)}
_G = {(i, j): (5 ** (10 + 2 * i + j)) % 999983 * 11 ** 9 - 1
      for i in range(5) for j in range(4)}
_np = None
_Z = None


def _py_unit() -> int:
    prod = {}
    for _ in range(14):
        prod.clear()
        for (a1, b1), c1 in _F.items():
            for (a2, b2), c2 in _G.items():
                key = (a1 + a2, b1 + b2)
                prod[key] = prod.get(key, 0) + c1 * c2
    g = 0
    for c in prod.values():
        g = math.gcd(g, c)
    f = Fraction(1, 3)
    for i in range(1, 40):
        f = f * Fraction(i + 1, i + 2) + Fraction(1, i)
    return g + len(prod) + (f > 0)


def _np_unit() -> float:
    acc = _np.zeros_like(_Z)
    w = _Z
    for _ in range(12):
        acc += _np.log(1.0 - 0.5 * w)
        w = w * 0.7
    return float(_np.abs(_np.exp(acc)).sum())


def _mixed_unit() -> float:
    return _py_unit() + _np_unit()


def _load_numpy() -> None:
    """numpy is imported for the mixed unit only, so that a `py` round's
    peak memory stays that of the program."""
    global _np, _Z
    import numpy
    _np = numpy
    _Z = numpy.exp(1j * numpy.linspace(0.0, 2 * numpy.pi, 2048)) * 0.9


UNITS = {"py": _py_unit, "mixed": _mixed_unit}


class Calibrator:
    """Runs slices of calibration units and sums their cost."""

    def __init__(self, kind: str):
        self.kind = kind
        self.unit = UNITS[kind]
        if kind == "mixed":
            _load_numpy()
        self.units = 0
        self.wall_s = 0.0
        self.cpu_s = 0.0
        self.last_end = None
        self.busy = False

    def _slice(self, n: int) -> None:
        w0, c0 = time.perf_counter(), time.process_time()
        for _ in range(n):
            self.unit()
        w1, c1 = time.perf_counter(), time.process_time()
        self.units += n
        self.wall_s += w1 - w0
        self.cpu_s += c1 - c0
        self.last_end = w1

    def start(self, ticking: bool = True) -> None:
        """Run the first slice and, if `ticking`, start the timer."""
        self._slice(FIRST_UNITS)
        if ticking:
            signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)

    def stop(self) -> None:
        """Stop the timer and run the last slice."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._tick()

    def _tick(self, *_) -> None:
        # A signal that arrives while a slice runs calls the handler again
        # inside it; such a call must not start a slice of its own.
        if self.busy:
            return
        self.busy = True
        gap = time.perf_counter() - self.last_end
        self._slice(max(1, round(SHARE * gap / UNIT_REF_S[self.kind])))
        self.busy = False

    def summary(self) -> dict:
        return {"kind": self.kind, "units": self.units,
                "wall_s": self.wall_s, "cpu_s": self.cpu_s}
