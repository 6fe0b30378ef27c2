"""Exact algebraic numbers: irreducible minimal polynomial plus a certified
root box selecting one conjugate.

Field arithmetic goes through resultants: the composite polynomial is built
by evaluation/interpolation (integer Sylvester determinants), factored, and
the correct irreducible factor is selected by interval refinement until the
choice is unambiguous.  Rational operands take direct shift/scale paths.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from .factor import factor_over_rationals
from .intervals import Interval, Rect, poly_eval_rect, rect_inverse
from .polys import IntPolynomial, PolynomialError, count_real_roots
from .roots import RootBox, isolate_roots, refine_box

DEFAULT_DEGREE_CAP = 64


class DegreeCapExceeded(ArithmeticError):
    """Composite degree would exceed the configured cap; never approximated."""


class SelectionError(ArithmeticError):
    pass


_X = IntPolynomial([0, 1])


@lru_cache(maxsize=4096)
def _isolated(minpoly: IntPolynomial) -> tuple[RootBox, ...]:
    if minpoly.degree == 1:
        r = Fraction(-minpoly.coeffs[0], minpoly.coeffs[1])
        return (RootBox(Interval(r, r)),)
    return tuple(isolate_roots(minpoly))


class AlgebraicNumber:
    """An exact algebraic number; immutable in its observable state.

    The root box only ever narrows (monotone refinement cache); every box
    held certifies the same root of the same irreducible polynomial.
    """

    __slots__ = ("minpoly", "_box")

    def __init__(self, minpoly: IntPolynomial, box: RootBox):
        self.minpoly = minpoly
        self._box = box

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, q) -> "AlgebraicNumber":
        q = Fraction(q)
        mp = IntPolynomial([-q.numerator, q.denominator])
        return cls(mp, RootBox(Interval(q, q)))

    @classmethod
    def from_root(cls, poly: IntPolynomial, box: RootBox) -> "AlgebraicNumber":
        """Select the root of (possibly reducible) poly certified by box."""
        if poly.degree < 1:
            raise PolynomialError("need degree >= 1")
        factors = [g for g, _ in factor_over_rationals(poly)]
        return _select(factors, lambda _k: box.rect())

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
        return Fraction(-self.minpoly.coeffs[0], self.minpoly.coeffs[1])

    def is_zero(self) -> bool:
        return self.minpoly == _X

    def is_integer(self) -> bool:
        return self.is_rational() and self.as_fraction().denominator == 1

    def is_real(self) -> bool:
        return self._box.is_real

    def box(self, eps: Fraction | None = None) -> RootBox:
        """Certified enclosure; refined to width <= eps when given."""
        if eps is not None and self._box.width > eps:
            self._box = refine_box(self.minpoly, self._box, eps)
        return self._box

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
        b = self._box
        if b.is_real:
            return "AlgebraicNumber(%s @ ~%.6g)" % (self.minpoly, float(b.re.mid))
        return "AlgebraicNumber(%s @ ~%.6g%+.6gi)" % (
            self.minpoly, float(b.re.mid), float(b.im.mid))

    # -- exact predicates ------------------------------------------------------

    def equals(self, other: "AlgebraicNumber") -> bool:
        if self.minpoly != other.minpoly:
            return False
        if self.is_rational():
            return True  # degree-1 minpoly has a single root
        return self.root_index() == other.root_index()

    __eq__ = equals

    def __hash__(self):
        return hash(self.minpoly)

    def root_index(self) -> int:
        """Index of the selected conjugate in the canonical isolation order."""
        canon = _isolated(self.minpoly)
        cur = self._box
        while True:
            hits = [i for i, cb in enumerate(canon) if cb.intersects(cur)]
            if len(hits) == 1:
                return hits[0]
            cur = refine_box(self.minpoly, cur, cur.width / 4)
            self._box = cur

    def is_totally_real(self) -> bool:
        return count_real_roots(self.minpoly) == self.degree

    def is_algebraic_integer(self) -> bool:
        return self.minpoly.is_monic()

    def sign(self) -> int:
        """Exact sign of a real algebraic number."""
        if self.is_zero():
            return 0
        b = self.box()
        if not b.is_real:
            raise ValueError("sign of a non-real number")
        while b.re.contains(0):
            b = refine_box(self.minpoly, b, b.width / 4)
            self._box = b
        return 1 if b.re.lo > 0 else -1

    def conjugate_boxes(self, eps: Fraction) -> list[RootBox]:
        """One refined box per conjugate, canonical order."""
        return [refine_box(self.minpoly, cb, eps) for cb in _isolated(self.minpoly)]

    def conjugates(self, bits: int = 32) -> "ConjugateSet":
        return ConjugateSet(self, bits)

    # -- arithmetic -------------------------------------------------------------

    def neg(self) -> "AlgebraicNumber":
        mp = self.minpoly.negate_variable().canonical()
        b = self._box
        box = RootBox(-b.re, None if b.is_real else -b.im)
        return AlgebraicNumber(mp, box)

    __neg__ = neg

    def inv(self) -> "AlgebraicNumber":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self.is_rational():
            return AlgebraicNumber.from_rational(1 / self.as_fraction())
        mp = self.minpoly.reverse().canonical()

        def value(k: int) -> Rect:
            b = self.box(Fraction(1, 1 << (16 + 8 * k)))
            while b.is_real and b.re.contains(0):
                b = refine_box(self.minpoly, b, b.width / 4)
                self._box = b
            return rect_inverse(b.rect())

        return _select([mp], value)

    def add(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        if self.is_rational():
            return other._add_rational(self.as_fraction())
        if other.is_rational():
            return self._add_rational(other.as_fraction())
        _check_cap(self.degree * other.degree, cap)
        res = _resultant_sum(self.minpoly, other.minpoly)
        factors = [g for g, _ in factor_over_rationals(res)]

        def value(k: int) -> Rect:
            eps = Fraction(1, 1 << (16 + 8 * k))
            return self.box(eps).rect() + other.box(eps).rect()

        return _select(factors, value)

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
        factors = [g for g, _ in factor_over_rationals(res)]

        def value(k: int) -> Rect:
            eps = Fraction(1, 1 << (16 + 8 * k))
            return self.box(eps).rect() * other.box(eps).rect()

        return _select(factors, value)

    __mul__ = mul

    def div(self, other: "AlgebraicNumber", cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        return self.mul(other.inv(), cap)

    __truediv__ = div

    def pow(self, n: int, cap: int = DEFAULT_DEGREE_CAP) -> "AlgebraicNumber":
        if n == 0:
            return AlgebraicNumber.one()
        if n < 0:
            return self.inv().pow(-n, cap)
        result = AlgebraicNumber.one()
        base = self
        while n:
            if n & 1:
                result = result.mul(base, cap)
            n >>= 1
            if n:
                base = base.mul(base, cap)
        return result

    def _add_rational(self, q: Fraction) -> "AlgebraicNumber":
        if self.is_rational():
            return AlgebraicNumber.from_rational(self.as_fraction() + q)
        mp = self.minpoly.shift_rational(q).canonical()
        b = self._box
        box = RootBox(b.re + Interval(q), None if b.is_real else b.im)
        return AlgebraicNumber(mp, box)

    def _mul_rational(self, q: Fraction) -> "AlgebraicNumber":
        if q == 0:
            return AlgebraicNumber.zero()
        if self.is_rational():
            return AlgebraicNumber.from_rational(self.as_fraction() * q)
        mp = self.minpoly.scale_roots(q).canonical()
        b = self._box
        re = b.re * Interval(q)
        if b.is_real:
            return AlgebraicNumber(mp, RootBox(re))
        im = b.im * Interval(q)
        return AlgebraicNumber(mp, RootBox(re, im))


class ConjugateSet:
    """All conjugates of a number: one certified box per root of its minimal
    polynomial, refined to the stated precision."""

    __slots__ = ("owner", "boxes", "bits")

    def __init__(self, owner: AlgebraicNumber, bits: int = 32):
        self.owner = owner
        self.bits = bits
        self.boxes = tuple(owner.conjugate_boxes(Fraction(1, 1 << bits)))
        if len(self.boxes) != owner.degree:
            raise ArithmeticError("conjugate count does not match the degree")

    def __len__(self):
        return len(self.boxes)

    def __iter__(self):
        return iter(self.boxes)

    def __repr__(self):
        return "ConjugateSet(%d conjugates @ %d bits)" % (len(self.boxes), self.bits)


# ---------------------------------------------------------------------------
# resultants by evaluation / interpolation


def _bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            mik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - mik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def _sylvester_det(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    m, n = len(a) - 1, len(b) - 1
    size = m + n
    mat = [[0] * size for _ in range(size)]
    ad, bd = list(reversed(a)), list(reversed(b))
    for i in range(n):
        mat[i][i:i + m + 1] = ad
    for i in range(m):
        mat[n + i][i:i + n + 1] = bd
    return _bareiss_det(mat)


def _interpolate_int_poly(points: list[tuple[int, int]]) -> IntPolynomial:
    """Newton interpolation through integer points; result must be integral."""
    xs = [Fraction(x) for x, _ in points]
    coeffs = [Fraction(y) for _, y in points]
    n = len(points)
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) / (xs[i] - xs[i - j])
    # expand Newton form
    poly = [Fraction(0)] * n
    acc = [Fraction(1)]
    for j in range(n):
        for i, c in enumerate(acc):
            poly[i] += coeffs[j] * c
        # acc *= (x - xs[j])
        nxt = [Fraction(0)] * (len(acc) + 1)
        for i, c in enumerate(acc):
            nxt[i] -= c * xs[j]
            nxt[i + 1] += c
        acc = nxt
    out = []
    for c in poly:
        if c.denominator != 1:
            raise ArithmeticError("resultant interpolation produced non-integer")
        out.append(c.numerator)
    return IntPolynomial(out)


def _resultant_sum(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Res_y(f(y), g(x - y)): vanishes at every alpha + beta."""
    d = f.degree * g.degree
    pts = []
    for x0 in _eval_points(d + 1):
        shifted = _compose_linear(g, x0)
        pts.append((x0, _sylvester_det(f.coeffs, shifted.coeffs)))
    return _interpolate_int_poly(pts)


def _resultant_product(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Res_y(f(y), y^n g(x/y)): vanishes at every alpha * beta (beta != 0)."""
    d = f.degree * g.degree
    n = g.degree
    if g.coeffs[0] == 0:
        raise ArithmeticError("product resultant needs g(0) != 0")
    pts = []
    for x0 in _eval_points(d + 1):
        hom = IntPolynomial([g.coeffs[n - k] * x0 ** (n - k) for k in range(n + 1)])
        pts.append((x0, _sylvester_det(f.coeffs, hom.coeffs)))
    return _interpolate_int_poly(pts)


def _eval_points(count: int):
    yield 0
    k = 1
    produced = 1
    while produced < count:
        yield k
        produced += 1
        if produced < count:
            yield -k
            produced += 1
        k += 1


def _compose_linear(g: IntPolynomial, c: int) -> IntPolynomial:
    """g(c - y) as a polynomial in y."""
    shift = IntPolynomial([c, -1])
    acc = IntPolynomial(())
    for coeff in reversed(g.coeffs):
        acc = acc * shift + IntPolynomial([coeff])
    return acc


def _check_cap(composite_degree: int, cap: int):
    if composite_degree > cap:
        raise DegreeCapExceeded(
            "composite degree %d exceeds cap %d" % (composite_degree, cap))


# ---------------------------------------------------------------------------
# factor selection


def _box_from_rect(rect_re: Interval, rect_im: Interval) -> RootBox:
    if rect_im.lo == 0 and rect_im.hi == 0:
        return RootBox(rect_re)
    return RootBox(rect_re, rect_im)


def _select(factors: list[IntPolynomial], value,
            max_rounds: int = 64) -> AlgebraicNumber:
    """Pick the unique (factor, root box) consistent with the value enclosure.

    `value(k)` returns a Rect enclosing the true value, shrinking with k.
    """
    for k in range(max_rounds):
        c = value(k)
        alive = [g for g in factors
                 if poly_eval_rect(g.coeffs, c).contains_zero()]
        if not alive:
            raise SelectionError("no factor is consistent with the enclosure")
        if len(alive) > 1:
            continue
        g = alive[0]
        boxes = list(_isolated(g))
        c_box_re, c_box_im = c.re, c.im
        for _ in range(max_rounds):
            hits = [b for b in boxes
                    if b.re.intersects(c_box_re) and b.im.intersects(c_box_im)]
            if len(hits) == 1:
                sel = hits[0]
                if sel.width == 0:  # exact rational/point root
                    return AlgebraicNumber(g, sel)
                re_iv = sel.re.intersect(c_box_re)
                im_iv = sel.im.intersect(c_box_im)
                return AlgebraicNumber(g, _box_from_rect(re_iv, im_iv))
            if not hits:
                break  # enclosure too coarse relative to refined boxes; retry
            boxes = [refine_box(g, b, b.width / 4) if b.width else b for b in boxes]
        # tighten the value enclosure and start over
    raise SelectionError("factor selection did not converge")


# ---------------------------------------------------------------------------
# convenience


def as_algebraic(x) -> AlgebraicNumber:
    if isinstance(x, AlgebraicNumber):
        return x
    return AlgebraicNumber.from_rational(Fraction(x))
