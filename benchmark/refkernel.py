"""Fixed reference kernel that the benchmark times between operations.

It is pure-Python big-integer and Fraction work of the same kind the program
does (Horner evaluation at rationals, gcd-heavy normalisation, growing
products), so a host that runs it slower runs the program slower by about
the same share.  Its work never changes, which makes its duration a measure
of host speed.
"""

import gc
from fractions import Fraction
from math import gcd
from time import perf_counter

# Reference duration used to express host-corrected time in seconds: a
# corrected time is the raw time scaled by REFERENCE_S / (measured kernel
# time).  The value is the kernel's median duration on a quiet 2-core x86-64
# container; any fixed value works, since it only sets the unit.
REFERENCE_S = 0.0027

_COEFFS = (7, -3, 12, -5, 9, 1, -11, 4, 2, -8, 6, -1, 3)
_POINTS = tuple(Fraction(3 * k + 1, 2 * k + 7) for k in range(24))


def kernel() -> int:
    """One fixed unit of work; returns a checksum so nothing is skipped."""
    acc = Fraction(0)
    for x in _POINTS:
        v = Fraction(0)
        for c in _COEFFS:
            v = v * x + c
        acc += v / (1 + x * x)
    n = acc.numerator
    d = acc.denominator
    g = 0
    prod = 1
    for k in range(40):
        prod = prod * (d + k) + n
        g = gcd(g, prod + k)
    return (prod ^ g) & 0xFFFF


def timed() -> float:
    """Wall seconds of one kernel call.  The garbage collector is off while
    it runs, since its cost grows with the objects the program holds, which
    is not host speed."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        kernel()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()
