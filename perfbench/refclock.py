"""The reference clock: work time scaled to a fixed host speed.

The host of a small sandbox runs the same instructions at different speeds
over time -- by up to 2x, for seconds or minutes, and on each core on its own
-- so raw wall times of one run differ from the next by more than a change
worth measuring.  A timed worker therefore interleaves a fixed calibration
unit with the work: checkpoint wrappers on renormlab's functions run the unit
once ``EVERY_S`` of work has passed, with the work clock stopped.  A work
list's reference time is its wall time times CAL_REF_S over the mean unit
time: the seconds it would have taken at the speed at which one unit takes
CAL_REF_S.  The unit runs numpy code of the kind renormlab runs (Chebyshev
evaluation and integration on 64 points, interpolation, small products) and
no renormlab code, so a change to renormlab cannot move it.

Only the neighbour of the work in time tracks the work's speed: a unit run on
the other core, or minutes apart, does not (see README.md, *Noise*).
"""

from __future__ import annotations

import functools
import statistics
import threading
import time
from array import array

import numpy as np
from numpy.polynomial import chebyshev

import tracer

CAL_REF_S = 0.015   # one unit, in seconds, on the quiet host that README.md describes
EVERY_S = 0.5       # work seconds between two checkpoint units
UNIT_STEPS = 64
SETUP_UNITS = 5     # units right after a worker's set-up, to scale its setup_s

# Checkpoints sit at the tracer's layer boundaries, less zoom (cheap and very
# frequent); the kernels under a long call give a checkpoint within ~1 ms.
TARGETS = tuple(t for t in tracer.TARGETS if t[0] != "diffspace.zoom")

_rng = np.random.default_rng(20260101)
_XS = np.linspace(-1.0, 1.0, 64)
_COEF = _rng.standard_normal(64) / np.arange(1, 65)
_MAT = _rng.standard_normal((64, 64)) / 64


def calibration_unit() -> float:
    """Run the fixed unit once and return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(UNIT_STEPS):
        y = chebyshev.chebval(_XS, _COEF)
        z = chebyshev.chebint(_COEF)
        w = np.interp(0.9 * _XS, _XS, y)
        acc += float(y[i % 64] + z[i % 65] + w[i % 64])
        if i % 8 == 0:
            acc += float(_MAT @ w @ y)
    return time.perf_counter() - t0


def scale(raw_s: float, unit_s: float) -> float:
    """Seconds at the reference speed, for ``raw_s`` measured at ``unit_s`` per unit."""
    return raw_s * CAL_REF_S / unit_s


class RefClock:
    """Calibration units interleaved with the work, and the pauses they took.

    ``checkpoint()`` runs a unit when one is due.  It holds a lock while the
    unit runs, so another thread of the work stops at its next checkpoint
    (releasing the GIL) instead of running alongside the unit.
    """

    def __init__(self, every: float = EVERY_S, unit=calibration_unit):
        self.every = every
        self.unit = unit
        self.samples = array("d")
        self.paused_s = 0.0
        self._due = 0.0
        self._lock = threading.Lock()
        self._patched: list = []

    def _run_unit(self):
        t0 = time.perf_counter()
        self.samples.append(self.unit())
        t1 = time.perf_counter()
        self.paused_s += t1 - t0
        self._due = t1 + self.every

    def calibrate(self):
        """Run one unit now."""
        with self._lock:
            self._run_unit()

    def checkpoint(self):
        if time.perf_counter() < self._due:
            return
        with self._lock:
            if time.perf_counter() >= self._due:
                self._run_unit()

    def wrap(self, name: str, fn):
        clock, checkpoint = time.perf_counter, self.checkpoint

        @functools.wraps(fn)
        def checked(*args, **kwargs):
            if clock() >= self._due:
                checkpoint()
            return fn(*args, **kwargs)

        return checked

    def install(self, targets=TARGETS) -> list[str]:
        """Put a checkpoint in front of every target; return the missing ones."""
        patched, missing = tracer.rebind(targets, self.wrap)
        self._patched.extend(patched)
        return missing

    def uninstall(self):
        tracer.unbind(self._patched)

    def timed(self, fn, *args):
        """fn(*args) between two units; returns (result, work seconds, mean unit seconds).

        Work seconds are wall seconds without the checkpoint pauses.
        """
        first = len(self.samples)
        self.calibrate()
        paused0, t0 = self.paused_s, time.perf_counter()
        result = fn(*args)
        work_s = time.perf_counter() - t0 - (self.paused_s - paused0)
        self.calibrate()
        return result, work_s, statistics.fmean(self.samples[first:])
