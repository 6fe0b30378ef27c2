"""Certified interval arithmetic with exact rational endpoints.

Transcendental enclosures (log, exp) run in scaled-integer arithmetic with
directed rounding, so every returned interval is a true enclosure; there is
no floating point anywhere on these paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .frozen import Frozen

_GUARD = 24  # extra working bits on top of a requested precision


class IntervalError(ArithmeticError):
    pass


class Interval(Frozen):
    """Closed interval [lo, hi] with Fraction endpoints."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo, hi=None):
        # Fractions pass through: Fraction(x) would run the numbers.Rational
        # check again, and so would comparing two Fractions
        lo = lo if type(lo) is Fraction else Fraction(lo)
        if hi is None:
            hi = lo
        else:
            hi = hi if type(hi) is Fraction else Fraction(hi)
            if lo.numerator * hi.denominator > hi.numerator * lo.denominator:
                raise IntervalError("empty interval [%s, %s]" % (lo, hi))
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    # -- structure ---------------------------------------------------------

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    def contains(self, x) -> bool:
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def contains_interval(self, other: "Interval") -> bool:
        return self.lo <= other.lo and other.hi <= self.hi

    def intersects(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi

    def intersect(self, other: "Interval") -> "Interval":
        lo, hi = max(self.lo, other.lo), min(self.hi, other.hi)
        if lo > hi:
            raise IntervalError("empty intersection")
        return Interval(lo, hi)

    def __eq__(self, other):
        return isinstance(other, Interval) and self.lo == other.lo and self.hi == other.hi

    def __hash__(self):
        return hash((self.lo, self.hi))

    def __repr__(self):
        return "Interval(%s, %s)" % (self.lo, self.hi)

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self):
        return Interval(-self.hi, -self.lo)

    def __add__(self, other):
        if isinstance(other, Rect):  # Rect.__radd__ answers
            return NotImplemented
        other = _as_interval(other)
        return Interval(self.lo + other.lo, self.hi + other.hi)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Rect):
            return NotImplemented
        return self + (-_as_interval(other))

    def __rsub__(self, other):
        return _as_interval(other) + (-self)

    def __mul__(self, other):
        if isinstance(other, Rect):
            return NotImplemented
        other = _as_interval(other)
        cands = (self.lo * other.lo, self.lo * other.hi,
                 self.hi * other.lo, self.hi * other.hi)
        return Interval(min(cands), max(cands))

    __rmul__ = __mul__

    def inverse(self) -> "Interval":
        if self.lo <= 0 <= self.hi:
            raise IntervalError("inverse of interval containing zero")
        return Interval(1 / self.hi, 1 / self.lo)

    def __truediv__(self, other):
        return self * _as_interval(other).inverse()

    def __rtruediv__(self, other):
        return _as_interval(other) * self.inverse()

    def abs(self) -> "Interval":
        if self.lo >= 0:
            return self
        if self.hi <= 0:
            return -self
        return Interval(Fraction(0), max(-self.lo, self.hi))

    def pow_int(self, n: int) -> "Interval":
        if n == 0:
            return Interval(1)
        if n < 0:
            return self.pow_int(-n).inverse()
        if n % 2 == 0:  # even powers factor through |x|, which is monotone
            base = self.abs()
            return Interval(base.lo ** n, base.hi ** n)
        return Interval(self.lo ** n, self.hi ** n)


def _as_interval(x) -> Interval:
    if isinstance(x, Interval):
        return x
    return Interval(x)


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)


# ---------------------------------------------------------------------------
# fixed-point enclosures: values represented as integer multiples of 2^-w


@lru_cache(maxsize=64)
def _ln2_scaled(w: int) -> tuple[int, int]:
    """Enclosure of ln 2, scaled by 2^w: ln2 = 2*atanh(1/3)."""
    # atanh(1/3) = sum (1/3)^(2k+1) / (2k+1)
    one = 1 << w
    lo = hi = 0
    p_lo = one // 3
    p_hi = p_lo + 1
    k = 0
    while True:
        d = 2 * k + 1
        lo += p_lo // d
        hi += p_hi // d + 1
        # next power: p * (1/9)
        p_lo, p_hi = p_lo // 9, p_hi // 9 + 1
        k += 1
        if p_hi <= d:  # tail < sum of remaining p/d < p_hi/(d(1-1/9)) <= 2 ulp
            hi += 2
            break
    return 2 * lo, 2 * hi


def _ln_scaled_between_1_and_2(num: int, den: int, w: int) -> tuple[int, int]:
    """Enclosure of ln(num/den) scaled by 2^w, for 1 <= num/den < 2."""
    # u = (r-1)/(r+1) in [0, 1/3); ln r = 2*atanh(u)
    un, ud = num - den, num + den
    u_lo = (un << w) // ud
    u_hi = u_lo + 1
    if u_lo == 0 and un == 0:
        return 0, 0
    u2_lo = (u_lo * u_lo) >> w
    u2_hi = ((u_hi * u_hi) >> w) + 1
    lo = hi = 0
    p_lo, p_hi = u_lo, u_hi
    k = 0
    while True:
        d = 2 * k + 1
        lo += p_lo // d
        hi += p_hi // d + 1
        p_lo = (p_lo * u2_lo) >> w
        p_hi = ((p_hi * u2_hi) >> w) + 1
        k += 1
        if p_hi <= d or p_hi == 0:
            # remaining tail: sum p_hi * (1/9)^j / d < p_hi * 9/8 <= 2*d ulp-ish
            hi += 2 * (p_hi // d + 1)
            break
    return 2 * lo, 2 * hi + 2


def ln_fraction(q: Fraction, bits: int) -> Interval:
    """Certified enclosure of the natural log of a positive rational."""
    if q <= 0:
        raise IntervalError("log of nonpositive value %s" % q)
    w = bits + _GUARD
    num, den = q.numerator, q.denominator
    # normalize num/den = r * 2^e with 1 <= r < 2
    e = num.bit_length() - den.bit_length()
    if e >= 0:
        n2, d2 = num, den << e
    else:
        n2, d2 = num << (-e), den
    if n2 < d2:
        e -= 1
        n2 <<= 1
    r_lo, r_hi = _ln_scaled_between_1_and_2(n2, d2, w)
    if e:
        l2_lo, l2_hi = _ln2_scaled(w)
        if e > 0:
            r_lo += e * l2_lo
            r_hi += e * l2_hi
        else:
            r_lo += e * l2_hi
            r_hi += e * l2_lo
    scale = 1 << w
    return Interval(Fraction(r_lo, scale), Fraction(r_hi, scale))


def log_interval(iv: Interval, bits: int) -> Interval:
    """Enclosure of ln over a positive interval."""
    if iv.lo <= 0:
        raise IntervalError("log over interval reaching 0: %r" % iv)
    lo = ln_fraction(iv.lo, bits).lo
    hi = ln_fraction(iv.hi, bits).hi
    return Interval(lo, hi)


def _exp_scaled(q: Fraction, w: int) -> tuple[int, int]:
    """Enclosure of e^q scaled by 2^w (q any rational of moderate size)."""
    l2_lo, l2_hi = _ln2_scaled(w)
    scale = 1 << w
    # k = nearest integer to q / ln2 (any nearby integer keeps |r| small)
    k = round(Fraction(q * scale) / Fraction(l2_lo + l2_hi, 2))
    r_iv = Interval(q) - Interval(Fraction(k * l2_lo, scale), Fraction(k * l2_hi, scale)) \
        if k >= 0 else Interval(q) - Interval(Fraction(k * l2_hi, scale), Fraction(k * l2_lo, scale))
    # |r| <= ~0.35; Taylor sum of r^n / n!
    r_lo = r_iv.lo.numerator * scale // r_iv.lo.denominator
    r_hi = _ceil_div(r_iv.hi.numerator * scale, r_iv.hi.denominator)
    term_lo, term_hi = scale, scale  # n = 0 term
    s_lo, s_hi = scale, scale
    n = 1
    while True:
        # multiply by r (interval, may be negative), divide by n
        cands = (term_lo * r_lo, term_lo * r_hi, term_hi * r_lo, term_hi * r_hi)
        t_lo = (min(cands) >> w) // n
        t_hi = _ceil_div(max(cands) >> w, n) + 1
        s_lo += t_lo
        s_hi += t_hi
        term_lo, term_hi = t_lo, t_hi
        m = max(abs(t_lo), abs(t_hi))
        n += 1
        if m * 2 < n:  # next term < m/2; geometric tail < m <= n/2 ulp-ish
            s_lo -= m + 4
            s_hi += m + 4
            break
        if n > 20000:
            raise IntervalError("exp argument too large for fixed-point path")
    if k >= 0:
        return s_lo << k, s_hi << k
    return s_lo >> (-k), (s_hi >> (-k)) + 1


def exp_fraction(q: Fraction, bits: int) -> Interval:
    w = bits + _GUARD
    if abs(q) > 1 << 20:
        raise IntervalError("exp argument out of supported range")
    lo, hi = _exp_scaled(q, w)
    scale = 1 << w
    return Interval(Fraction(max(lo, 0), scale), Fraction(hi, scale))


def exp_interval(iv: Interval, bits: int) -> Interval:
    lo = exp_fraction(iv.lo, bits).lo
    hi = exp_fraction(iv.hi, bits).hi
    return Interval(lo, hi)


def sqrt_fraction_down(q: Fraction, bits: int) -> Fraction:
    if q < 0:
        raise IntervalError("sqrt of negative value")
    n, d = q.numerator, q.denominator
    s = isqrt(n * d << (2 * bits))
    return Fraction(s, d << bits)


def sqrt_fraction_up(q: Fraction, bits: int) -> Fraction:
    if q < 0:
        raise IntervalError("sqrt of negative value")
    n, d = q.numerator, q.denominator
    s = isqrt(n * d << (2 * bits))
    if s * s < n * d << (2 * bits):
        s += 1
    return Fraction(s, d << bits)


def sqrt_interval(iv: Interval, bits: int) -> Interval:
    if iv.lo < 0:
        raise IntervalError("sqrt over interval with negative part")
    return Interval(sqrt_fraction_down(iv.lo, bits), sqrt_fraction_up(iv.hi, bits))


@lru_cache(maxsize=64)
def _inv_e(bits: int) -> Interval:
    return exp_fraction(Fraction(-1), bits)


def xlogx_interval(iv: Interval, bits: int) -> Interval:
    """Enclosure of x*ln(x) over [lo, hi] with lo >= 0; 0*ln 0 := 0."""
    if iv.lo < 0:
        raise IntervalError("xlogx needs nonnegative interval")

    def at(x: Fraction) -> Interval:
        if x == 0:
            return Interval(0)
        return Interval(x) * ln_fraction(x, bits)

    va, vb = at(iv.lo), at(iv.hi)
    lo = min(va.lo, vb.lo)
    hi = max(va.hi, vb.hi)
    # single interior minimum at x = 1/e with value -1/e, enclosed at the
    # working precision so enclosures keep shrinking with the interval
    e_inv = _inv_e(bits)
    if iv.lo < e_inv.hi and iv.hi > e_inv.lo:
        lo = min(lo, -e_inv.hi)
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# complex rectangles


class Rect(Frozen):
    """Axis-aligned complex rectangle: re + i*im with interval parts."""

    __slots__ = ("re", "im")

    def __init__(self, re: Interval, im: Interval):
        object.__setattr__(self, "re", _as_interval(re))
        object.__setattr__(self, "im", _as_interval(im))

    def __repr__(self):
        return "Rect(%r, %r)" % (self.re, self.im)

    def __eq__(self, other):
        return isinstance(other, Rect) and self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __add__(self, other):
        other = _as_rect(other)
        return Rect(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return Rect(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-_as_rect(other))

    def __rsub__(self, other):
        return _as_rect(other) + (-self)

    def __mul__(self, other):
        """Interval products re*re - im*im and re*im + im*re, formed by
        `_rect_mul` on numerators over one common denominator."""
        q, (x, y) = _numerators([self, _as_rect(other)])
        return _rect_over(_rect_mul(x, y), q * q)

    __rmul__ = __mul__

    def contains_zero(self) -> bool:
        return self.re.contains(0) and self.im.contains(0)

    def contains_rect(self, other: "Rect") -> bool:
        return self.re.contains_interval(other.re) and self.im.contains_interval(other.im)

    def intersects(self, other: "Rect") -> bool:
        return self.re.intersects(other.re) and self.im.intersects(other.im)

    @property
    def width(self) -> Fraction:
        return max(self.re.width, self.im.width)

    def mid(self) -> tuple[Fraction, Fraction]:
        return self.re.mid, self.im.mid


def _as_rect(x) -> Rect:
    if isinstance(x, Rect):
        return x
    if isinstance(x, Interval):
        return Rect(x, Interval(0))
    return Rect(Interval(x), Interval(0))


def rect_inverse(z: Rect) -> Rect:
    """conj(z) / |z|^2, with |z|^2 = re^2 + im^2 as `Interval.pow_int(2)`
    forms the squares and each part divided by it as an `Interval`
    quotient, on integers: with corners over q, |z|^2 is [lo, hi] / q^2,
    and x / q divided by it is x * q / [hi, lo], so the four quotients of
    each part compare as x * lo and x * hi over lo * hi."""
    q, [(a, b, c, d)] = _numerators([z])
    s0, s1 = _sq(a, b)
    t0, t1 = _sq(c, d)
    lo, hi = s0 + t0, s1 + t1
    if lo == 0:  # |z|^2 >= 0 always, so it meets 0 exactly when lo is 0
        raise IntervalError("inverse of rectangle containing zero")
    rlo, rhi = _imul(a, b, lo, hi)
    ilo, ihi = _imul(c, d, lo, hi)
    return _rect_over((rlo * q, rhi * q, -ihi * q, -ilo * q), lo * hi)


def poly_eval_rect(coeffs, z: Rect) -> Rect:
    """Rectangle Horner with `Rect.__mul__`'s interval products, run on
    integers by `_horner_rect`: the same rational result, with no gcd per
    step."""
    q, [corners] = _numerators([z])
    return _rect_over(_horner_rect(coeffs, *corners, q),
                      q ** (len(coeffs) - 1) if coeffs else 1)


def _rect_over(corners, s: int) -> Rect:
    """The Rect with corners (re lo, re hi, im lo, im hi) over s."""
    rlo, rhi, ilo, ihi = corners
    return Rect(Interval(Fraction(rlo, s), Fraction(rhi, s)),
                Interval(Fraction(ilo, s), Fraction(ihi, s)))


def _numerators(rects) -> tuple[int, list[tuple[int, int, int, int]]]:
    """q, the lcm of the rectangles' corner denominators, and each
    rectangle's corners (re lo, re hi, im lo, im hi) as numerators over q."""
    corners = [(z.re.lo, z.re.hi, z.im.lo, z.im.hi) for z in rects]
    q = lcm(*(x.denominator for c in corners for x in c))
    return q, [tuple(x.numerator * (q // x.denominator) for x in c) for c in corners]


# Integer Horner cores.  A point or corner x/q enters as its numerator x
# over a common denominator q, and the accumulator after k steps is q^k
# times the Fraction accumulator, so a result over q^(len(coeffs) - 1) is
# exactly the rational that Fraction (interval) Horner gives: min and max
# commute with the positive scaling.


def _horner_interval(coeffs, a: int, b: int, q: int) -> tuple[int, int]:
    """Interval Horner over [a, b] / q, over q^(len(coeffs) - 1)."""
    lo = hi = 0
    qk = 1
    for c in reversed(coeffs):
        cands = (lo * a, lo * b, hi * a, hi * b)
        lo, hi, qk = min(cands) + c * qk, max(cands) + c * qk, qk * q
    return lo, hi


def _horner_rect(coeffs, a: int, b: int, c: int, d: int,
                 q: int) -> tuple[int, int, int, int]:
    """Rectangle Horner over ([a, b] + i[c, d]) / q with `Rect.__mul__`'s
    interval products: (re lo, re hi, im lo, im hi) over q^(len(coeffs) - 1)."""
    rlo = rhi = ilo = ihi = 0
    qk = 1
    for coef in reversed(coeffs):
        p = (rlo * a, rlo * b, rhi * a, rhi * b)  # acc.re * z.re
        s = (ilo * c, ilo * d, ihi * c, ihi * d)  # acc.im * z.im
        t = (rlo * c, rlo * d, rhi * c, rhi * d)  # acc.re * z.im
        u = (ilo * a, ilo * b, ihi * a, ihi * b)  # acc.im * z.re
        cq = coef * qk
        rlo, rhi = min(p) - max(s) + cq, max(p) - min(s) + cq
        ilo, ihi = min(t) + min(u), max(t) + max(u)
        qk *= q
    return rlo, rhi, ilo, ihi


def _imul(a0: int, a1: int, b0: int, b1: int) -> tuple[int, int]:
    """[a0, a1] * [b0, b1], as `Interval.__mul__` forms it."""
    p = (a0 * b0, a0 * b1, a1 * b0, a1 * b1)
    return min(p), max(p)


def _sq(lo: int, hi: int) -> tuple[int, int]:
    """[lo, hi]^2, as `Interval.pow_int(2)` forms it."""
    if lo >= 0:
        return lo * lo, hi * hi
    if hi <= 0:
        return hi * hi, lo * lo
    return 0, max(-lo, hi) ** 2


def _rect_mul(x: tuple, y: tuple) -> tuple[int, int, int, int]:
    """`Rect.__mul__` on integer numerators: x and y are (re lo, re hi,
    im lo, im hi) over denominators q_x and q_y, the product is over
    q_x * q_y."""
    rlo, rhi, ilo, ihi = x
    a, b, c, d = y
    p = (rlo * a, rlo * b, rhi * a, rhi * b)  # x.re * y.re
    s = (ilo * c, ilo * d, ihi * c, ihi * d)  # x.im * y.im
    t = (rlo * c, rlo * d, rhi * c, rhi * d)  # x.re * y.im
    u = (ilo * a, ilo * b, ihi * a, ihi * b)  # x.im * y.re
    return min(p) - max(s), max(p) - min(s), min(t) + min(u), max(t) + max(u)


def _horner_point(coeffs, x: int, y: int, q: int) -> tuple[int, int]:
    """Complex Horner at (x + iy) / q: (re, im) over q^(len(coeffs) - 1)."""
    ar = ai = 0
    qk = 1
    for c in reversed(coeffs):
        ar, ai = ar * x - ai * y + c * qk, ar * y + ai * x
        qk *= q
    return ar, ai


# ---------------------------------------------------------------------------
# decimal rendering with directed rounding


def decimal_lower(x: Fraction, digits: int) -> str:
    """Decimal string <= x with `digits` places after the point."""
    scale = 10 ** digits
    v = x.numerator * scale // x.denominator
    return _place_point(v, digits)


def decimal_upper(x: Fraction, digits: int) -> str:
    scale = 10 ** digits
    v = _ceil_div(x.numerator * scale, x.denominator)
    return _place_point(v, digits)


def _place_point(v: int, digits: int) -> str:
    sign = "-" if v < 0 else ""
    v = abs(v)
    if digits == 0:
        return sign + str(v)
    s = str(v).rjust(digits + 1, "0")
    return sign + s[:-digits] + "." + s[-digits:]


def decimal_midpoint(iv: Interval, max_digits: int = 15) -> tuple[str, str]:
    """(midpoint string, plus/minus string) printing certified digits only."""
    rad = iv.width / 2
    digits = max_digits
    if rad > 0:
        # largest digit count with 10^-digits >= 2*rad (certified digits only)
        digits = 0
        q = Fraction(1)
        while digits < max_digits and q / 10 >= rad * 2:
            q /= 10
            digits += 1
    mid = iv.mid
    scale = 10 ** digits
    v = (mid.numerator * scale + mid.denominator // 2) // mid.denominator
    pm = rad + abs(mid - Fraction(v, scale))
    return _place_point(v, digits), _format_pm(pm)


def _format_pm(x: Fraction) -> str:
    if x == 0:
        return "0"
    f = float(x)
    if f == 0.0:  # underflow; report conservative tiny bound
        return "1e-300"
    return "%.2g" % (f * 1.01)
