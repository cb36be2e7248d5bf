"""Host-speed reference for the end-to-end times of untraced rounds.

The benchmark runs on a shared host whose speed drifts by 20% and more from
one minute to the next, and a round's CPU time drifts with it. So while the
commands of an untraced round run, a sampler thread in the child wakes every
PERIOD_S seconds and runs a slice of SLICE_CALLS calls of a fixed reference
kernel, timed on its own thread's CPU clock. The program's times are then
rescaled by the kernel's mean cost per call:

    ref seconds = seconds * REF_CALL_S / kernel CPU seconds per call

so a round reads the same whichever speed the host had while it ran. The
result is in `ref_s`: seconds on a host where one kernel call takes
REF_CALL_S of CPU. The slices are sampled evenly in time and do not depend
on which laumonk functions run.

The kernel is pure Python written here: sparse polynomial products over
big integers and Euclid's algorithm, the kind of work sympy does for
laumonk. It calls nothing from sympy, because laumonk patches sympy's gcd,
and a later change to that patch must not move the reference too.
"""

from __future__ import annotations

import threading
import time

REF_CALL_S = 0.0002  # about one kernel call on the reference machine
SLICE_CALLS = 50
PERIOD_S = 0.1

_A = {(i, j, (i * j) % 3): (7 ** (i + j)) * (-1) ** i + 3 * j + 1
      for i in range(5) for j in range(5)}
_B = {(j, (i + j) % 4, i): 5 ** (2 * i + 1) - j
      for i in range(4) for j in range(5)}


def kernel():
    """One reference call: a 25 x 20 term product in three variables and
    the gcd of its coefficients."""
    prod = {}
    for (a, b, c), x in _A.items():
        for (d, e, f), y in _B.items():
            key = (a + d, b + e, c + f)
            prod[key] = prod.get(key, 0) + x * y
    g = 0
    for v in prod.values():
        while v:
            g, v = v, g % v
    return g


class Meter:
    """Sampler thread; use as a context manager around the timed work."""

    def __init__(self):
        self.calls = 0
        self.slice_cpu = 0.0  # thread CPU seconds of all slices
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample, daemon=True)

    def _sample(self):
        while not self._stop.wait(PERIOD_S):
            start = time.thread_time()
            for _ in range(SLICE_CALLS):
                kernel()
            self.slice_cpu += time.thread_time() - start
            self.calls += SLICE_CALLS

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def ref_seconds(self, seconds):
        """`seconds` of program time at the reference speed."""
        if not self.calls:
            raise ValueError("no reference slice ran")
        return seconds * REF_CALL_S * self.calls / self.slice_cpu
