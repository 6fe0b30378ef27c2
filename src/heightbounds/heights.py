"""Weil heights of algebraic numbers and projective heights of points.

The place-sum definitions are realized through classical closed forms: the
Mahler-measure formula for the Weil height of an algebraic number, and the
coprime-integer-vector maximum for rational projective blocks.  Every
numeric output is a certified interval on the natural-log scale.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import ceil, gcd, isqrt

from .algebraic import AlgebraicNumber, as_algebraic, conjugate_box
from .factor import factor_over_rationals
from .frozen import Frozen
from .intervals import (Interval, _numerators, _sq, ln_fraction, sqrt_fraction_down,
                        sqrt_fraction_up)
from .polys import IntPolynomial, is_cyclotomic

DEFAULT_BITS = 128


class HeightError(ValueError):
    pass


class UnsupportedBlockShape(HeightError):
    """Algebraic coordinates in blocks of dimension > 1 are not computable here."""


class HeightValue(Frozen):
    """Certified enclosure of a logarithmic height."""

    __slots__ = ("log_height", "bits")

    def __init__(self, log_height: Interval, bits: int):
        # heights are nonnegative; clamp rounding dust on the low side
        lo = max(log_height.lo, Fraction(0))
        object.__setattr__(self, "log_height", Interval(lo, max(log_height.hi, lo)))
        object.__setattr__(self, "bits", bits)

    def __repr__(self):
        return "HeightValue(~%.12g, bits=%d)" % (float(self.log_height.mid), self.bits)

    def is_exact_zero(self) -> bool:
        return self.log_height.lo == 0 and self.log_height.hi == 0


def mahler_measure(f: IntPolynomial, eps) -> Interval:
    """Certified interval of width <= eps around M(f).

    M(f) = |lead| * prod max(1, |root|) over all roots with multiplicity;
    computed factorwise, so root isolation always sees squarefree input.
    Each factor's boxes come from the conjugate store shared with algebraic
    numbers; factors whose roots are 0 or roots of unity contribute exactly
    1 (Kronecker).
    """
    eps = Fraction(eps)
    if f.is_zero():
        raise HeightError("Mahler measure of the zero polynomial")
    if eps <= 0:
        raise HeightError("eps must be positive")
    if f.degree == 0:
        return Interval(abs(f.constant))
    return _measure_of_parts(f, factor_over_rationals(f), eps)


def _measure_of_parts(f: IntPolynomial, parts, eps: Fraction) -> Interval:
    """M(f) from its irreducible (factor, multiplicity) parts; x and the
    cyclotomic factors contribute exactly 1."""
    # a root whose isolating box lies in the unit disk contributes 1
    parts = [(g, mult, [i for i in range(g.degree) if _abs2(conjugate_box(g, i))[1] > 1])
             for g, mult in parts if g.coeffs != (0, 1) and not is_cyclotomic(g)]
    # Boxes of width w move each |root| by < 2w, so while n * w <= 1/4 the
    # product moves by < 4 * n * w * M, and M <= ||f||_2 (Landau).
    n = f.degree
    landau = isqrt(sum(c * c for c in f.coeffs)) + 1
    k = max(ceil(4 * n * landau / eps).bit_length(), (4 * n).bit_length())
    while True:
        w = Fraction(1, 1 << k)
        # every factor is >= 1, so the product of the intervals is the
        # product of their lower ends and that of their upper ends, kept
        # here as integer numerators and denominators
        lo_n = hi_n = abs(f.lead)
        lo_d = hi_d = 1
        for g, mult, outside in parts:
            a_n = a_d = b_n = b_d = 1
            for i in outside:
                lo, hi = _abs_bounds(conjugate_box(g, i, w), k + 4)
                if lo.numerator > lo.denominator:  # max(1, |z|)
                    a_n, a_d = a_n * lo.numerator, a_d * lo.denominator
                if hi.numerator > hi.denominator:
                    b_n, b_d = b_n * hi.numerator, b_d * hi.denominator
            lo_n, lo_d = lo_n * a_n ** mult, lo_d * a_d ** mult
            hi_n, hi_d = hi_n * b_n ** mult, hi_d * b_d ** mult
        total = Interval(Fraction(lo_n, lo_d), Fraction(hi_n, hi_d))
        if total.width <= eps:
            return total
        k += 16


def _abs2(box) -> tuple[Fraction, Fraction]:
    """The ends of |z|^2 = re^2 + im^2 over box, squares as
    `Interval.pow_int(2)` forms them."""
    q, [(a, b, c, d)] = _numerators([box])
    (s0, s1), (t0, t1) = _sq(a, b), _sq(c, d)
    return Fraction(s0 + t0, q * q), Fraction(s1 + t1, q * q)


def _abs_bounds(box, bits: int) -> tuple[Fraction, Fraction]:
    """Lower and upper bounds of |z| over box: exact for a real box, square
    roots of |z|^2 rounded outward to `bits` otherwise."""
    if box.is_real:
        a = box.re.abs()
        return a.lo, a.hi
    lo, hi = _abs2(box)
    return sqrt_fraction_down(lo, bits), sqrt_fraction_up(hi, bits)


def weil_log_height(a: AlgebraicNumber, bits: int = DEFAULT_BITS) -> HeightValue:
    """log h(alpha) = (1/deg) * log M(minpoly); exactly [0,0] in the
    Kronecker cases (zero or a root of unity)."""
    return _minpoly_log_height(a.minpoly, bits)


@lru_cache(maxsize=4096)
def _minpoly_log_height(f: IntPolynomial, bits: int) -> HeightValue:
    """The Weil height depends only on the minimal polynomial, so it is
    computed once per (minpoly, bits) and process."""
    # max(|lead|, |f(0)|) <= M(f) exactly, so this eps asks for relative
    # precision 2^-(bits+4) on M, which bounds the absolute error of log M
    eps = max(abs(f.lead), abs(f.constant)) * Fraction(1, 1 << (bits + 4))
    # the minimal polynomial is irreducible: it is its own only part
    m = _measure_of_parts(f, [(f, 1)], eps)
    if m.lo == m.hi == 1:  # x or cyclotomic: M = 1 exactly
        return HeightValue(Interval(0), bits)
    log_m = Interval(ln_fraction(m.lo, bits + 8).lo, ln_fraction(m.hi, bits + 8).hi)
    return HeightValue(Interval(log_m.lo / f.degree, log_m.hi / f.degree), bits)


def rational_block_log_height(coords, bits: int = DEFAULT_BITS) -> HeightValue:
    """log H of a projective block of rationals: log max|c_i| after
    clearing to a coprime integer vector; exact scale invariance."""
    coords = [Fraction(c) for c in coords]
    if all(c == 0 for c in coords):
        raise HeightError("all-zero projective block")
    denom_lcm = 1
    for c in coords:
        denom_lcm = denom_lcm * c.denominator // gcd(denom_lcm, c.denominator)
    ints = [int(c * denom_lcm) for c in coords]
    g = 0
    for v in ints:
        g = gcd(g, v)
    ints = [v // g for v in ints]
    m = max(abs(v) for v in ints)
    if m == 1:
        return HeightValue(Interval(0), bits)
    return HeightValue(ln_fraction(Fraction(m), bits + 4), bits)


class MultiProjectivePoint(Frozen):
    """Point in a product of projective spaces, at least one nonzero
    coordinate per block; every coordinate is stored as an AlgebraicNumber."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        norm = []
        for bi, block in enumerate(blocks):
            row = tuple(as_algebraic(c) for c in block)
            if all(c.is_zero() for c in row):
                raise HeightError("block %d has no nonzero coordinate" % bi)
            norm.append(row)
        object.__setattr__(self, "blocks", tuple(norm))

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(len(b) - 1 for b in self.blocks)

    def __repr__(self):
        return "MultiProjectivePoint(shape=%r)" % (self.shape,)


def block_log_height(block, bits: int = DEFAULT_BITS) -> HeightValue:
    """log H of one projective block of AlgebraicNumbers (not yet weighted
    by n_i + 1)."""
    if all(c.is_rational() for c in block):
        return rational_block_log_height([c.as_fraction() for c in block], bits)
    if len(block) != 2:
        raise UnsupportedBlockShape(
            "algebraic coordinates are supported only in blocks of shape "
            "(x0, x1); got a block of length %d" % len(block))
    x0, x1 = block
    if x0.is_zero() or x1.is_zero():
        # (0, x1) ~ (0, 1) and (x0, 0) ~ (1, 0): height 0
        return HeightValue(Interval(0), bits)
    return weil_log_height(x1.div(x0), bits)


def point_log_height(point: MultiProjectivePoint, bits: int = DEFAULT_BITS) -> HeightValue:
    """The weighted sum over blocks of (n_i + 1) * log H(block_i)."""
    total = Interval(0)
    # extra per-block bits keep the summed width within the stated precision
    extra = (len(point.blocks) - 1).bit_length() + 3
    for block in point.blocks:
        h = block_log_height(block, bits + extra)
        total = total + h.log_height * Interval(len(block))
    return HeightValue(total, bits)
