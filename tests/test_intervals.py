import random
from fractions import Fraction
from math import lcm

import mpmath
import pytest

from heightbounds.intervals import (Interval, IntervalError, Rect, _horner_interval,
                                    _horner_point, decimal_lower, decimal_midpoint, decimal_upper,
                                    exp_fraction, ln_fraction, log_interval, poly_eval_rect,
                                    rect_inverse, sqrt_interval, xlogx_interval)


def mpf_frac(value) -> Fraction:
    """Exact Fraction of an mpmath float (mpf values are dyadic)."""
    sign, man, exp, _ = mpmath.mpf(value)._mpf_
    v = Fraction(man) * Fraction(2) ** exp
    return -v if sign else v


def contains_mp(iv: Interval, value, slack_bits=140) -> bool:
    v = mpf_frac(value)
    eps = Fraction(1, 1 << slack_bits)
    return iv.lo - eps <= v <= iv.hi + eps


class TestIntervalOps:
    def test_arith(self):
        a, b = Interval(1, 2), Interval(-1, 3)
        assert (a + b).lo == 0 and (a + b).hi == 5
        assert (a * b).lo == -2 and (a * b).hi == 6
        assert (-a).lo == -2

    def test_division_by_zero_interval(self):
        with pytest.raises(IntervalError):
            Interval(1) / Interval(-1, 1)

    def test_empty_rejected_for_every_input_type(self):
        for lo, hi in ((3, 2), ("1/2", "1/3"), (Fraction(-1, 3), Fraction(-1, 2)),
                       (Fraction(10**40 + 1, 3), Fraction(10**40, 3)), (True, False)):
            with pytest.raises(IntervalError):
                Interval(lo, hi)
        assert Interval("1/3", Fraction(1, 3)) == Interval(Fraction(1, 3))

    def test_inputs_normalized_to_fractions(self):
        for iv in (Interval(True), Interval(False, True), Interval(2, "5/2"), Interval(0.5)):
            assert type(iv.lo) is Fraction and type(iv.hi) is Fraction
        assert Interval(True) == Interval(1) and Interval(False, True) == Interval(0, 1)

    def test_pow_int(self):
        iv = Interval(Fraction(-2), Fraction(3))
        sq = iv.pow_int(2)
        assert sq.lo == 0 or sq.lo == 4  # even power of sign-changing interval
        assert sq.hi == 9
        assert iv.pow_int(0) == Interval(1)


class TestTranscendental:
    def test_ln_against_mpmath(self):
        mpmath.mp.dps = 50
        rng = random.Random(11)
        for _ in range(40):
            q = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**6))
            iv = ln_fraction(q, 96)
            assert iv.width < Fraction(1, 1 << 90)
            true = mpmath.log(mpmath.mpf(q.numerator) / q.denominator)
            assert contains_mp(iv, true)

    def test_ln_one_exact(self):
        iv = ln_fraction(Fraction(1), 64)
        assert iv.lo == 0 and iv.hi == 0

    def test_ln_rejects_nonpositive(self):
        with pytest.raises(IntervalError):
            ln_fraction(Fraction(0), 64)

    def test_exp_against_mpmath(self):
        mpmath.mp.dps = 50
        rng = random.Random(13)
        for _ in range(40):
            q = Fraction(rng.randint(-8 * 10**5, 8 * 10**5), rng.randint(1, 10**5))
            if abs(q) > 20:
                continue
            iv = exp_fraction(q, 96)
            true = mpmath.exp(mpmath.mpf(q.numerator) / q.denominator)
            assert contains_mp(iv, true)
            assert iv.width / mpf_frac(true) < Fraction(1, 1 << 80)

    def test_exp_ln_round_trip(self):
        q = Fraction(7, 3)
        iv = exp_fraction(ln_fraction(q, 128).lo, 128)
        assert iv.lo <= q <= iv.hi + Fraction(1, 1 << 100)

    def test_sqrt(self):
        iv = sqrt_interval(Interval(2), 128)
        assert iv.lo * iv.lo <= 2 <= iv.hi * iv.hi
        assert iv.width < Fraction(1, 1 << 120)

    def test_xlogx_range(self):
        # range over [0, 1] is [-1/e, 0]
        iv = xlogx_interval(Interval(Fraction(0), Fraction(1)), 80)
        assert iv.hi == 0
        assert abs(float(iv.lo) + 0.36787944117144233) < 1e-20

    def test_xlogx_zero_convention(self):
        assert xlogx_interval(Interval(0), 64) == Interval(0)

    def test_log_interval_monotone(self):
        iv = log_interval(Interval(Fraction(2), Fraction(3)), 80)
        assert float(iv.lo) <= 0.6931471805599453
        assert float(iv.hi) >= 1.0986122886681098


class TestRect:
    def test_mul_contains_products(self):
        rng = random.Random(4)
        for _ in range(30):
            a = Rect(Interval(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(6, 9))),
                     Interval(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(6, 9))))
            b = Rect(Interval(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(6, 9))),
                     Interval(Fraction(rng.randint(-5, 5)), Fraction(rng.randint(6, 9))))
            prod = a * b
            for _ in range(5):
                za = complex(rng.uniform(float(a.re.lo), float(a.re.hi)),
                             rng.uniform(float(a.im.lo), float(a.im.hi)))
                zb = complex(rng.uniform(float(b.re.lo), float(b.re.hi)),
                             rng.uniform(float(b.im.lo), float(b.im.hi)))
                z = za * zb
                assert float(prod.re.lo) - 1e-9 <= z.real <= float(prod.re.hi) + 1e-9
                assert float(prod.im.lo) - 1e-9 <= z.imag <= float(prod.im.hi) + 1e-9

    def test_interval_operand_first(self):
        iv = Interval(Fraction(-2), Fraction(5, 3))
        z = Rect(Interval(1, 2), Interval(Fraction(-1, 2), 3))
        assert iv * z == z * iv
        assert iv + z == z + iv
        assert iv - z == -(z - iv)

    def test_inverse(self):
        z = Rect(Interval(Fraction(1), Fraction(2)), Interval(Fraction(1), Fraction(2)))
        inv = rect_inverse(z)
        w = 1 / complex(1.5, 1.5)
        assert float(inv.re.lo) <= w.real <= float(inv.re.hi)
        assert float(inv.im.lo) <= w.imag <= float(inv.im.hi)

    def test_inverse_through_zero_rejected(self):
        with pytest.raises(IntervalError):
            rect_inverse(Rect(Interval(-1, 1), Interval(-1, 1)))

    def test_equality_and_containment(self):
        from heightbounds.roots import RootBox
        outer = Rect(Interval(0, 2), Interval(1, 3))
        box = RootBox(Interval(1, 2), Interval(1, 2))
        assert outer.contains_rect(box) and not box.contains_rect(outer)
        assert box == Rect(Interval(1, 2), Interval(1, 2))
        assert len({box, Rect(Interval(1, 2), Interval(1, 2)), outer}) == 2
        assert RootBox(Interval(1, 2)) == Rect(Interval(1, 2), Interval(0))

    def test_poly_eval(self):
        # f(z) = z^2 + 1 at the point i: exactly 0
        z = Rect(Interval(0), Interval(1))
        v = poly_eval_rect((1, 0, 1), z)
        assert v.contains_zero()


# ---------------------------------------------------------------------------
# Frozen reference: `Rect.__mul__` and `rect_inverse` as they were written in
# Fraction interval arithmetic, before they moved to integers.  The integer
# versions must return the same rectangles and raise where these raise.


def _fraction_rect_mul(x: Rect, y: Rect) -> Rect:
    return Rect(x.re * y.re - x.im * y.im, x.re * y.im + x.im * y.re)


def _fraction_rect_inverse(z: Rect) -> Rect:
    d = z.re.pow_int(2) + z.im.pow_int(2)
    if d.contains(0):
        raise IntervalError("inverse of rectangle containing zero")
    return Rect(z.re / d, -z.im / d)


def _fraction_rect_horner(coeffs, z: Rect) -> Rect:
    """Reference: rectangle Horner in Fraction interval arithmetic."""
    acc = Rect(Interval(0), Interval(0))
    for c in reversed(coeffs):
        acc = _fraction_rect_mul(acc, z) + Rect(Interval(c), Interval(0))
    return acc


def _fraction_interval_horner(coeffs, x: Interval) -> Interval:
    """Reference: interval Horner in Fraction interval arithmetic."""
    acc = Interval(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _fraction_point_horner(coeffs, zr: Fraction, zi: Fraction):
    """Reference: complex Horner at a point in Fractions."""
    ar, ai = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        ar, ai = ar * zr - ai * zi + c, ar * zi + ai * zr
    return ar, ai


class TestIntegerHorner:
    """`poly_eval_rect` and the point and interval cores `_horner_point`
    and `_horner_interval` run on integers; they must return exactly the
    rationals of Fraction Horner."""

    @staticmethod
    def _endpoint(rng: random.Random) -> Fraction:
        den = rng.choice((1 << rng.randint(0, 150), 3 << rng.randint(0, 148),
                          3 ** rng.randint(1, 94)))
        return Fraction(rng.randint(-(1 << 150), 1 << 150), den)

    def _interval(self, rng: random.Random, kind: str) -> Interval:
        if kind == "axis":
            return Interval(0)
        a = self._endpoint(rng)
        if kind == "point":
            return Interval(a)
        b = self._endpoint(rng)
        return Interval(min(a, b), max(a, b))

    def test_equals_fraction_reference(self):
        rng = random.Random(20170801)
        for _ in range(5000):
            coeffs = [rng.randint(-(1 << 64), 1 << 64) for _ in range(rng.randint(1, 13))]
            re_kind = rng.choice(("wide", "wide", "point"))
            im_kind = rng.choice(("wide", "wide", "point", "axis"))
            z = Rect(self._interval(rng, re_kind), self._interval(rng, im_kind))
            assert poly_eval_rect(coeffs, z) == _fraction_rect_horner(coeffs, z)
            zr, zi = z.re.lo, z.im.hi
            q = lcm(zr.denominator, zi.denominator)
            ar, ai = _horner_point(coeffs, zr.numerator * (q // zr.denominator),
                                   zi.numerator * (q // zi.denominator), q)
            s = q ** (len(coeffs) - 1)
            assert (Fraction(ar, s), Fraction(ai, s)) == _fraction_point_horner(coeffs, zr, zi)
            x = z.re
            q = lcm(x.lo.denominator, x.hi.denominator)
            lo, hi = _horner_interval(coeffs, x.lo.numerator * (q // x.lo.denominator),
                                      x.hi.numerator * (q // x.hi.denominator), q)
            s = q ** (len(coeffs) - 1)
            assert Interval(Fraction(lo, s), Fraction(hi, s)) == _fraction_interval_horner(coeffs, x)


class TestRectFractionReference:
    @staticmethod
    def _part(rng: random.Random) -> Interval:
        kind = rng.choice(("wide", "wide", "positive", "negative", "point", "zero"))
        if kind == "zero":
            return Interval(0)
        den = rng.choice((1, 3, 7 << rng.randint(0, 40), 3 ** rng.randint(1, 30),
                          1 << rng.randint(0, 64)))
        a = Fraction(rng.randint(-(1 << 70), 1 << 70), den)
        if kind == "point":
            return Interval(a)
        b = Fraction(rng.randint(-(1 << 70), 1 << 70), rng.choice((den, den * 5, 11)))
        a, b = min(a, b), max(a, b)
        if kind == "positive":
            return Interval(abs(a) + 1, abs(a) + abs(b) + 1)
        if kind == "negative":
            return Interval(-abs(a) - abs(b) - 1, -abs(a) - 1)
        return Interval(a, b)

    def test_mul_and_inverse_equal_fraction_reference(self):
        rng = random.Random(20140613)
        raised = 0
        for _ in range(3000):
            x = Rect(self._part(rng), self._part(rng))
            y = Rect(self._part(rng), self._part(rng))
            assert x * y == _fraction_rect_mul(x, y)
            try:
                expected = _fraction_rect_inverse(x)
            except IntervalError:
                raised += 1
                with pytest.raises(IntervalError):
                    rect_inverse(x)
                continue
            assert rect_inverse(x) == expected
        assert 100 < raised < 1000  # rectangles meeting 0 are drawn too

    def test_mul_by_rationals_and_intervals(self):
        z = Rect(Interval(Fraction(-1, 3), Fraction(2, 7)), Interval(Fraction(5, 9), 1))
        for other, re in ((3, Interval(3)), (Fraction(-2, 5), Interval(Fraction(-2, 5))),
                          (Interval(Fraction(1, 3), 2), Interval(Fraction(1, 3), 2))):
            assert z * other == _fraction_rect_mul(z, Rect(re, Interval(0)))
        assert 3 * z == z * 3

    def test_inverse_of_rectangle_touching_zero_rejected(self):
        # |z|^2 has lower end 0 exactly when the rectangle holds 0
        for z in (Rect(Interval(0), Interval(0)), Rect(Interval(0, 1), Interval(-1, 0)),
                  Rect(Interval(Fraction(-1, 3), 0), Interval(0))):
            with pytest.raises(IntervalError):
                rect_inverse(z)
        z = Rect(Interval(Fraction(-1, 3), Fraction(1, 3)), Interval(Fraction(1, 7), 1))
        assert rect_inverse(z) == _fraction_rect_inverse(z)


class TestDecimal:
    def test_directed_rounding(self):
        x = Fraction(1, 3)
        assert decimal_lower(x, 5) == "0.33333"
        assert decimal_upper(x, 5) == "0.33334"
        assert decimal_lower(-x, 5) == "-0.33334"

    def test_midpoint_certified_digits(self):
        iv = Interval(Fraction("1.6180339887"), Fraction("1.6180339888"))
        mid, pm = decimal_midpoint(iv)
        assert mid.startswith("1.61803398")
        assert float(pm) >= float(iv.width) / 2
