"""Shared plumbing: counting operations and checks, timing, set-up time.

Timings are normalised to a nominal machine speed.  The host this
benchmark was written on changes speed by 20% and more over minutes
(a fixed pure-Python loop, timed every 20 s for five minutes, moved by
that much), which no statistic taken inside one run removes.  So every
timed call is bracketed by a fixed reference loop, and its time is
scaled by REF_NOMINAL_S / (reference loop time).  Set-up samples use a
reference of their own kind instead (see SetupTimer).  Raw times are
printed beside the normalised ones.
"""

from __future__ import annotations

import fractions
import gc
import importlib
import marshal
import math
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# The time the reference loop would take on the nominal machine.
REF_NOMINAL_S = 0.5e-3


def _reference_loop() -> int:
    """Fixed work of the kind argred does: big-int arithmetic, Fraction
    construction and function calls (0.45 to 0.9 ms on the 2.1 GHz cores
    this benchmark was written on)."""
    a = (1 << 113) + 12345
    acc = 0
    for i in range(500):
        b = (a * (i | 1)) >> 7
        acc ^= b & ((1 << 60) - 1)
        acc += Fraction(i + 1, 1 << (i % 64 + 1)).numerator.bit_length()
    return acc


# reference loops per speed() measurement: a bracket of 10-20 ms.  Over
# 100 s of correct3 sweeps (0.38 s each), medians of 30 rates scaled by
# it varied by 1.4% (coefficient of variation), against 3.0% with the
# best of 3 loops and 6.6% raw.
SPEED_LOOPS = 20


def speed() -> float:
    """REF_NOMINAL_S over the reference loop's mean time now."""
    t0 = time.perf_counter()
    for _ in range(SPEED_LOOPS):
        _reference_loop()
    return SPEED_LOOPS * REF_NOMINAL_S / (time.perf_counter() - t0)


class Tally:
    """Operations attempted and failed, and check results.

    An operation is one call into argred.  It fails when it raises (or,
    for a CLI call, exits non-zero); its outputs are then not checked.
    ``correct`` is False as soon as one check on a successful operation
    fails.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.checks = 0
        self.bad_checks = 0
        self.messages: list[str] = []

    def run(self, fn, *args, **kwargs):
        """Run one operation: (seconds, result), result None on failure."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a failing operation is counted, not fatal
            dt = time.perf_counter() - t0
            self.fail(f"{getattr(fn, '__name__', fn)}: {type(exc).__name__}: {exc}")
            return dt, None
        return time.perf_counter() - t0, out

    def call(self, name, case, fn, *args, **kwargs):
        """Run one operation, untimed: its result, None on failure.  The
        signature of Tracer.call, so that a replay takes either."""
        return self.run(fn, *args, **kwargs)[1]

    def fail(self, message: str) -> None:
        self.failed += 1
        self._note(message)

    def check(self, failures: list[str]) -> None:
        self.checks += 1
        if failures:
            self.bad_checks += 1
            for m in failures:
                self._note("check: " + m)

    def _note(self, message: str) -> None:
        if len(self.messages) < 20:
            self.messages.append(message)

    @property
    def correct(self) -> bool:
        return self.bad_checks == 0


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    s = sorted(values)
    return s[max(0, math.ceil(q / 100 * len(s)) - 1)]


def timed(tally: Tally, fn, *args, **kwargs):
    """tally.run bracketed by speed(): (normalised s, raw s, result)."""
    s0 = speed()
    dt, out = tally.run(fn, *args, **kwargs)
    return dt * (s0 + speed()) / 2, dt, out


def _reimport_argred() -> float:
    """Seconds to import argred again in this process.

    The loaded argred modules are set aside, imported afresh (their module
    code runs again from the byte-code cache) and put back, so everything
    else keeps using the modules it already holds.
    """
    mine = [k for k in sys.modules if k == "argred" or k.startswith("argred.")]
    saved = {k: sys.modules.pop(k) for k in mine}
    try:
        t0 = time.perf_counter()
        importlib.import_module("argred.cli")
        return time.perf_counter() - t0
    finally:
        for k in [k for k in sys.modules if k == "argred" or k.startswith("argred.")]:
            del sys.modules[k]
        sys.modules.update(saved)


# Set-up samples are scaled by a reference of the same kind as import
# work: compiling a fixed module source and unmarshalling its byte code
# (the standard library's fractions.py, fixed for an interpreter).  Over
# 40 s of samples, blocks of 5 scaled by it varied by 3.3% (coefficient
# of variation) against 6.1% scaled by the reference loop and 18% raw.
_SETUP_REF_SOURCE = Path(fractions.__file__).read_text()
_SETUP_REF_CODE = marshal.dumps(compile(_SETUP_REF_SOURCE, "reference", "exec"))
# the time _setup_reference_seconds would take on the nominal machine
SETUP_REF_NOMINAL_S = 5e-3


def _setup_reference_seconds() -> float:
    t0 = time.perf_counter()
    for _ in range(3):
        marshal.loads(_SETUP_REF_CODE)
        compile(_SETUP_REF_SOURCE, "reference", "exec")
    return time.perf_counter() - t0


class SetupTimer:
    """Set-up time: importing argred plus `prepare()`, sampled in blocks.

    The host's speed changes in phases of a few seconds, which a
    reference bracket follows only in part (blocks of samples 4 s apart in
    one process, scaled by the reference loop, differed by up to 18%).  So
    the samples are taken in blocks spread over the run: one before timing
    starts, one after each round that ends SETUP_EVERY_S or more after the
    last block, and one at the end.  The metric is their median.
    The collector is off while a sample runs, so that a collection started
    by earlier garbage does not land in it.
    """

    SAMPLES = 5
    SETUP_EVERY_S = 5.0

    def __init__(self, prepare) -> None:
        self.prepare = prepare
        self.times: list[float] = []
        self.raw: list[float] = []
        self.last = -math.inf

    def block(self) -> None:
        for _ in range(self.SAMPLES):
            gc.collect()
            gc.disable()
            try:
                r0 = _setup_reference_seconds()
                dt = _reimport_argred()
                t0 = time.perf_counter()
                self.prepare()
                dt += time.perf_counter() - t0
                r1 = _setup_reference_seconds()
            finally:
                gc.enable()
            self.times.append(dt * 2 * SETUP_REF_NOMINAL_S / (r0 + r1))
            self.raw.append(dt)
        self.last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self.last >= self.SETUP_EVERY_S

    def seconds(self) -> tuple[float, float]:
        """(normalised, raw) median set-up time."""
        return statistics.median(self.times), statistics.median(self.raw)
