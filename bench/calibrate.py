"""A fixed piece of pure-Python work that measures how fast the machine runs.

The benchmark runs on cores shared with other tenants, where the speed of the
same Python code drifts by tens of per cent over seconds and minutes.  Every
timing the benchmark reports is therefore scaled to a reference speed: a
time ``t`` measured while the kernel below took ``c`` milliseconds is
reported as ``t * REFERENCE_MS / c``.

The kernel is a sparse product of two 25-term polynomials with ``Fraction``
coefficients held in dicts, the same kind of work as confalg's polynomial
kernel, but none of confalg's code runs in it: a change to confalg cannot
change the kernel's time, so a slower program still shows in full.  The
collector is paused while it runs, so that objects the program keeps alive
cannot slow it either.
"""

from __future__ import annotations

import gc
import time
from fractions import Fraction

# roughly the kernel's median time on the two-vCPU machine of the baseline,
# so scaled times read close to what that machine measured
REFERENCE_MS = 3.5

_TERMS = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}


def kernel_ms():
    """The kernel's time now, in milliseconds."""
    gc.disable()
    try:
        start = time.perf_counter()
        out = {}
        for (i, j), x in _TERMS.items():
            for (k, l), y in _TERMS.items():
                key = (i + k, j + l)
                out[key] = out.get(key, 0) + x * y
        return (time.perf_counter() - start) * 1000.0
    finally:
        gc.enable()
