"""Exact algebraic numbers: an irreducible minimal polynomial plus the
conjugate it names.

Root boxes belong to the polynomial: one bounded store per polynomial holds
its canonical isolation and, per conjugate, boxes at fixed anchor widths,
and only the store refines a box.  The store is real-first: real roots
lead the canonical order and are isolated on their own, and the non-real
ones are certified only when a non-real conjugate or an enclosure off the
real axis needs them.  Sums, products and powers go through
the composed sum, product or power of the minimal polynomials, built from
power sums by Newton's identities in integers, and factored; one routine,
`_select`, picks the factor and conjugate against enclosures of the value
along one fixed schedule of widths, `_WIDTHS`.  Rational operands take
direct shift/scale paths, which isolate nothing.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from math import comb

from .factor import factor_over_rationals
from .intervals import Interval, Rect, poly_eval_rect, rect_inverse
from .polys import IntPolynomial, PolynomialError, count_real_roots
from .roots import RootBox, isolate_real_roots, isolate_roots, refine_box

DEFAULT_DEGREE_CAP = 64


class DegreeCapExceeded(ArithmeticError):
    """Composite degree would exceed the configured cap; never approximated."""


class SelectionError(ArithmeticError):
    pass


_X = IntPolynomial([0, 1])


# ---------------------------------------------------------------------------
# the conjugate store

# Anchor widths 2^-64, 2^-128, 2^-256, narrowest first.  A box of width eps
# is refined from the narrowest anchor wider than eps, so each anchor from
# the one before it; a finer schedule costs more than it saves.
_ANCHORS = tuple(Fraction(1, 1 << bits) for bits in (256, 128, 64))

# The one schedule of root selection: the isolating box (None), then
# 2^-16 ... 2^-256.  `_conjugates_in` and `_select` walk it; it is finite,
# so a box that holds two roots, or none, is rejected at once.
_WIDTHS = (None,) + tuple(Fraction(1, 1 << bits) for bits in (16, 32, 64, 128, 256))


@lru_cache(maxsize=4096)
def _isolated_real(f: IntPolynomial) -> tuple[RootBox, ...]:
    """The real roots of squarefree f, ascending: the head of its canonical
    isolation, which needs no non-real root."""
    if f.degree == 1:
        return (RootBox(Interval(Fraction(-f.coeffs[0], f.coeffs[1]))),)
    return tuple(isolate_real_roots(f))


@lru_cache(maxsize=4096)
def _isolated(f: IntPolynomial) -> tuple[RootBox, ...]:
    """The canonical isolation of squarefree f (see `roots.isolate_roots`),
    extending the real boxes the store already holds."""
    return tuple(isolate_roots(f, _isolated_real(f)))


@lru_cache(maxsize=8192)
def conjugate_box(f: IntPolynomial, index: int, eps: Fraction | None = None) -> RootBox:
    """Certified box of width <= eps (the isolating box when eps is None)
    around root `index` of f in canonical order.

    A pure function of its arguments, memoized: the refinement source
    depends only on eps, so no box depends on earlier calls or eviction.
    Real conjugates lead the order, so they never wait for the non-real."""
    real = _isolated_real(f)
    box = real[index] if index < len(real) else _isolated(f)[index]
    if eps is None or not _wider(box, eps):
        return box
    source = next((w for w in _ANCHORS if w > eps), None)
    if source is not None:
        box = conjugate_box(f, index, source)
    return refine_box(f, box, eps) if _wider(box, eps) else box


def _wider(box: Rect, eps: Fraction) -> bool:
    """box.width > eps, compared on integers."""
    n, d = eps.numerator, eps.denominator
    for iv in (box.re, box.im):
        lo, hi = iv.lo, iv.hi
        if (hi.numerator * lo.denominator - lo.numerator * hi.denominator) * d \
                > n * hi.denominator * lo.denominator:
            return True
    return False


def _holds_root(f: IntPolynomial, rect: Rect) -> bool:
    """True when rect is a real interval on which f changes sign, so that
    it certainly holds a root of f."""
    return rect.im.lo == rect.im.hi == 0 and f.sign_at(rect.re.lo) * f.sign_at(rect.re.hi) <= 0


def _conjugates_in(f: IntPolynomial, rect: Rect, encloses: bool) -> list[int]:
    """Indices of the conjugates of f that can lie in rect.

    Each conjugate's box is refined along `_WIDTHS` only until it is
    inside rect or disjoint from it; the scan stops once two are certified
    inside or, when rect is known to hold a root of f (`encloses`), once at
    most one conjugate is left."""
    inside: list[int] = []
    # a non-real box never meets the real axis, so an enclosure on the axis
    # can hold only real conjugates
    on_axis = rect.im.lo == rect.im.hi == 0
    maybe = list(range(len(_isolated_real(f)) if on_axis else f.degree))
    for eps in _WIDTHS:
        boxes = {i: conjugate_box(f, i, eps) for i in maybe}
        maybe = [i for i in maybe if boxes[i].intersects(rect)]
        inside += [i for i in maybe if rect.contains_rect(boxes[i])]
        maybe = [i for i in maybe if i not in inside]
        if len(inside) >= 2 or not maybe or (encloses and len(inside) + len(maybe) < 2):
            break
    return inside + maybe


# ---------------------------------------------------------------------------
# numbers


def _number(minpoly: IntPolynomial, base: IntPolynomial, index: int,
            scale=Fraction(1), shift=Fraction(0)) -> "AlgebraicNumber":
    if minpoly.degree == 1:  # a rational: root 0 of x, shifted by its value
        base, index, scale = _X, 0, Fraction(1)
        shift = Fraction(-minpoly.coeffs[0], minpoly.coeffs[1])
    a = object.__new__(AlgebraicNumber)
    a.minpoly, a._base, a._index, a._scale, a._shift = minpoly, base, index, scale, shift
    return a


class AlgebraicNumber:
    """An exact algebraic number; immutable.

    The value is `scale * theta + shift`, where theta is root `index` of
    `base` in canonical order and `minpoly` is the value's own minimal
    polynomial.  Every enclosure is read from the conjugate store; the
    number holds no box.
    """

    __slots__ = ("minpoly", "_base", "_index", "_scale", "_shift")

    def __init__(self, poly: IntPolynomial, box: Rect):
        """The root of (possibly reducible) poly in box; raises SelectionError
        unless exactly one root of poly can lie in the box."""
        if poly.degree < 1:
            raise PolynomialError("need degree >= 1")
        root = _select([g for g, _ in factor_over_rationals(poly)], lambda eps: box,
                       encloses=False)
        self.minpoly, self._base, self._index, self._scale, self._shift = (
            root.minpoly, root._base, root._index, root._scale, root._shift)

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        mp = IntPolynomial([-q.numerator, q.denominator])
        return _number(mp, mp, 0)

    @classmethod
    def from_root(cls, poly: IntPolynomial, box: Rect) -> "AlgebraicNumber":
        """The classmethod spelling of `AlgebraicNumber(poly, box)`."""
        return cls(poly, box)

    @classmethod
    def zero(cls) -> "AlgebraicNumber":
        return cls.from_rational(0)

    @classmethod
    def one(cls) -> "AlgebraicNumber":
        return cls.from_rational(1)

    # -- structure ----------------------------------------------------------

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    def is_rational(self) -> bool:
        return self.degree == 1

    def as_fraction(self) -> Fraction:
        if not self.is_rational():
            raise ValueError("not a rational value")
        return self._shift

    def is_zero(self) -> bool:
        return self.minpoly == _X

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    def is_real(self) -> bool:
        return self._index < len(_isolated_real(self._base))

    def box(self, eps: Fraction | None = None) -> RootBox:
        """Certified enclosure; of width <= eps when given."""
        if self.is_rational():
            return RootBox(Interval(self._shift))
        scale, shift = self._scale, self._shift
        if eps is not None:
            eps = eps / abs(scale)
        b = conjugate_box(self._base, self._index, eps)
        if scale == 1 and shift == 0:
            return b
        s = Interval(scale)
        return RootBox(b.re * s + Interval(shift), None if b.is_real else b.im * s)

    def interval(self, eps: Fraction) -> Interval:
        """Real-line enclosure; raises for non-real numbers."""
        b = self.box(eps)
        if not b.is_real:
            raise ValueError("number is not real")
        return b.re

    def approximate(self, eps) -> RootBox:
        eps = Fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        return self.box(eps)

    def __float__(self) -> float:
        b = self.box(Fraction(1, 10**17))
        if not b.is_real:
            raise ValueError("not real")
        return float(b.re.mid)

    def __complex__(self) -> complex:
        b = self.box(Fraction(1, 10**17))
        return complex(float(b.re.mid), float(b.im.mid))

    def __repr__(self):
        # 2^-32 certifies the 6 significant digits printed
        b = self.box(Fraction(1, 1 << 32))
        if b.is_real:
            return "AlgebraicNumber(%s @ ~%.6g)" % (self.minpoly, float(b.re.mid))
        return "AlgebraicNumber(%s @ ~%.6g%+.6gi)" % (
            self.minpoly, float(b.re.mid), float(b.im.mid))

    # -- exact predicates ------------------------------------------------------

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self.minpoly != other.minpoly:
            return False
        # a degree-1 minpoly has a single root
        return self.is_rational() or self.root_index() == other.root_index()

    def __eq__(self, other):
        if not isinstance(other, AlgebraicNumber):
            return NotImplemented
        return self.equals(other)

    def __hash__(self):
        return hash(self.minpoly)

    def root_index(self) -> int:
        """Index of the number in the canonical isolation of its minimal
        polynomial."""
        if self._base == self.minpoly and self._scale == 1 and self._shift == 0:
            return self._index
        return _select([self.minpoly], self.box)._index

    def is_totally_real(self) -> bool:
        return count_real_roots(self.minpoly) == self.degree

    def is_algebraic_integer(self) -> bool:
        return self.minpoly.is_monic()

    def sign(self) -> int:
        """Exact sign of a real algebraic number."""
        if self.is_zero():
            return 0
        if not self.is_real():
            raise ValueError("sign of a non-real number")
        return 1 if self._box_off_zero().re.lo > 0 else -1

    def _box_off_zero(self, eps: Fraction | None = None) -> RootBox:
        """A box of width <= eps (when given) that excludes 0; the number
        must be nonzero."""
        b = self.box(eps)
        while b.contains_zero():
            b = self.box(b.width / 4)
        return b

    def conjugate_boxes(self, eps: Fraction) -> list[RootBox]:
        """One refined box per conjugate, canonical order."""
        return [conjugate_box(self.minpoly, i, eps) for i in range(self.degree)]

    # -- arithmetic -------------------------------------------------------------

    def _affine(self, minpoly: IntPolynomial, scale, shift) -> "AlgebraicNumber":
        """The number scale * self + shift, whose minimal polynomial is minpoly."""
        return _number(minpoly, self._base, self._index,
                       scale * self._scale, scale * self._shift + shift)

    def neg(self) -> "AlgebraicNumber":
        return self._affine(self.minpoly.negate_variable().canonical(), -1, 0)

    __neg__ = neg

    def inv(self) -> "AlgebraicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return AlgebraicNumber.from_rational(1 / self.as_fraction())
        return _select([self.minpoly.reverse().canonical()],
                       lambda eps: rect_inverse(self._box_off_zero(eps)))

    def add(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        if self.is_rational():
            return other._add_rational(self.as_fraction())
        if other.is_rational():
            return self._add_rational(other.as_fraction())
        _check_cap(self.degree * other.degree, cap)
        res = _resultant_sum(self.minpoly, other.minpoly)
        return _select([g for g, _ in factor_over_rationals(res)],
                       lambda eps: self.box(eps) + other.box(eps))

    __add__ = add

    def sub(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        return self.add(other.neg(), cap)

    __sub__ = sub

    def mul(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        if self.is_rational():
            return other._mul_rational(self.as_fraction())
        if other.is_rational():
            return self._mul_rational(other.as_fraction())
        _check_cap(self.degree * other.degree, cap)
        res = _resultant_product(self.minpoly, other.minpoly)
        return _select([g for g, _ in factor_over_rationals(res)],
                       lambda eps: self.box(eps) * other.box(eps))

    __mul__ = mul

    def div(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        return self.mul(other.inv(), cap)

    __truediv__ = div

    def pow(self, n: int) -> "AlgebraicNumber":
        """self^n, whose degree is at most self's: the polynomial with roots
        (lead * conjugate)^n comes from every n-th power sum."""
        if n < 0:
            return self.inv().pow(-n)
        if n == 0:
            return AlgebraicNumber.one()
        if n == 1:
            return self
        if self.is_rational():
            return AlgebraicNumber.from_rational(self.as_fraction() ** n)
        f = self.minpoly
        res = _from_power_sums(_power_sums(f, f.degree * n)[::n], f.lead ** n)
        return _select([g for g, _ in factor_over_rationals(res)],
                       lambda eps: reduce(Rect.__mul__, [self.box(eps)] * n))

    def _add_rational(self, q: Fraction) -> "AlgebraicNumber":
        if q == 0:
            return self
        if self.is_rational():
            return AlgebraicNumber.from_rational(self.as_fraction() + q)
        return self._affine(self.minpoly.shift_rational(q).canonical(), 1, q)

    def _mul_rational(self, q: Fraction) -> "AlgebraicNumber":
        if q == 0:
            return AlgebraicNumber.zero()
        if q == 1:
            return self
        if self.is_rational():
            return AlgebraicNumber.from_rational(self.as_fraction() * q)
        return self._affine(self.minpoly.scale_roots(q).canonical(), q, 0)


# ---------------------------------------------------------------------------
# composed sums, products and powers from power sums


def _power_sums(f: IntPolynomial, n: int) -> list[int]:
    """Power sums p_0..p_n of lead(f) * (roots of f), by Newton's identities
    on the monic integer polynomial with those roots."""
    m, a = f.degree, f.lead
    e = [1] + [f.coeffs[m - k] * a ** (k - 1) for k in range(1, m + 1)]
    p = [m]
    for k in range(1, n + 1):
        s = sum(e[j] * p[k - j] for j in range(1, min(k, m + 1)))
        p.append(-s - k * e[k] if k <= m else -s)
    return p


def _from_power_sums(p: list[int], scale: int) -> IntPolynomial:
    """The polynomial whose p[0] roots, times scale, have the power sums p;
    by Newton's identities, which must divide exactly."""
    e = [1]
    for k in range(1, len(p)):
        q, r = divmod(-sum(e[j] * p[k - j] for j in range(k)), k)
        if r:
            raise ArithmeticError("power sums of roots that are not algebraic integers")
        e.append(q)
    return IntPolynomial(e[::-1]).scale_roots(Fraction(1, scale))


def _resultant_sum(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The composed sum: vanishes at every alpha + beta.  With a, b the
    leading coefficients, its roots times ab are b * (a alpha) + a * (b beta)."""
    d, a, b = f.degree * g.degree, f.lead, g.lead
    pa = [b ** j * s for j, s in enumerate(_power_sums(f, d))]
    pb = [a ** j * s for j, s in enumerate(_power_sums(g, d))]
    return _from_power_sums([sum(comb(k, j) * pa[j] * pb[k - j] for j in range(k + 1))
                             for k in range(d + 1)], a * b)


def _resultant_product(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """The composed product: vanishes at every alpha * beta."""
    d = f.degree * g.degree
    return _from_power_sums([s * t for s, t in zip(_power_sums(f, d), _power_sums(g, d))],
                            f.lead * g.lead)


def _check_cap(composite_degree: int, cap: int):
    if composite_degree > cap:
        raise DegreeCapExceeded(
            "composite degree %d exceeds cap %d" % (composite_degree, cap))


# ---------------------------------------------------------------------------
# factor selection


def _select(factors: list[IntPolynomial], value, encloses: bool = True) -> AlgebraicNumber:
    """The unique (factor, conjugate) that the value enclosure singles out.

    `value(eps)` is a Rect around the number, about eps wide (eps None: the
    isolating boxes).  Along `_WIDTHS`, while two or more factors are left,
    those that do not vanish on the enclosure are dropped; once one factor
    is left, or at the last width, the conjugates that can lie in the
    enclosure are counted.  `encloses` is False for a box given as input,
    which is fixed and so counted once, and which may hold no root: there a
    lone conjugate not yet certified inside counts only after a sign change
    on the real interval, or when it is still undecided at the last width."""
    hits: list[tuple[IntPolynomial, int]] = []
    for eps in _WIDTHS:
        rect = value(eps)
        if len(factors) > 1:
            factors = [g for g in factors if poly_eval_rect(g.coeffs, rect).contains_zero()]
        if len(factors) < 2 or not encloses or eps is _WIDTHS[-1]:
            hits = [(g, i) for g in factors for i in _conjugates_in(
                g, rect, encloses and len(factors) == 1 or _holds_root(g, rect))]
            if len(hits) < 2 or not encloses:
                break
    if len(hits) != 1:
        raise SelectionError("the enclosure can hold %d roots, not one" % len(hits))
    g, i = hits[0]
    return _number(g, g, i)


# ---------------------------------------------------------------------------
# convenience


def as_algebraic(x) -> AlgebraicNumber:
    if isinstance(x, AlgebraicNumber):
        return x
    return AlgebraicNumber.from_rational(Fraction(x))
