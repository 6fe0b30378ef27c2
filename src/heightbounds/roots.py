"""Certified root isolation for squarefree integer polynomials.

Real roots are isolated by Sturm-count bisection, so every real box is
certified by an exact sign-variation count, and `isolate_real_roots` needs
nothing else.  Non-real roots are seeded by a numerical solver (mpmath,
imported only then) and certified with an exact rational Krawczyk
inclusion test; no certificate ever depends on floating point.  The
rectangle Horner under Krawczyk runs on integers over a common
denominator, with the same rational results as Fraction arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .intervals import (Interval, IntervalError, Rect, poly_eval_interval,
                        poly_eval_rect, rect_inverse, sqrt_fraction_down,
                        sqrt_fraction_up)
from .polys import IntPolynomial, PolynomialError, count_real_roots, root_bound, sturm_chain


class IsolationError(ArithmeticError):
    pass


class RootBox(Rect):
    """A rectangle certified to contain exactly one root of its polynomial.

    Real roots live in a rational interval on the real line; non-real roots
    in a rational-cornered rectangle that stays off the real axis.
    """

    __slots__ = ("is_real",)

    def __init__(self, re: Interval, im: Interval | None = None):
        # slots are set directly, skipping Rect.__init__: boxes are built in hot loops
        is_real = im is None or (im.lo == 0 and im.hi == 0)
        if not is_real and im.contains(0):
            raise IsolationError("non-real box may not meet the real axis")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", Interval(0) if is_real else im)
        object.__setattr__(self, "is_real", is_real)

    def __reduce__(self):
        return (RootBox, (self.re, None if self.is_real else self.im))

    def __repr__(self):
        if self.is_real:
            return "RootBox([%s, %s])" % (self.re.lo, self.re.hi)
        return "RootBox(re=[%s, %s], im=[%s, %s])" % (
            self.re.lo, self.re.hi, self.im.lo, self.im.hi)

    def mirror(self) -> "RootBox":
        if self.is_real:
            return self
        return RootBox(self.re, -self.im)

    def abs_interval(self, bits: int) -> Interval:
        """Enclosure of |z| over the box."""
        if self.is_real:
            return self.re.abs()
        a2 = self.abs2()
        return Interval(sqrt_fraction_down(max(a2.lo, Fraction(0)), bits),
                        sqrt_fraction_up(a2.hi, bits))


# ---------------------------------------------------------------------------
# real isolation (Sturm bisection)


def isolate_real_roots(f: IntPolynomial) -> list[RootBox]:
    """Disjoint certified intervals, one per real root, sorted ascending."""
    if f.degree < 1:
        raise PolynomialError("need degree >= 1")
    if sturm_chain(f)[-1].degree > 0:  # the chain ends in gcd(f, f')
        raise PolynomialError("input must be squarefree")
    total = count_real_roots(f)
    if total == 0:
        return []
    bound = root_bound(f)
    lo, hi = -bound, bound
    boxes: list[RootBox] = []
    stack = [(lo, hi, count_real_roots(f, lo, hi))]
    while stack:
        a, b, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            sa, sb = f.sign_at(a), f.sign_at(b)
            if sa * sb < 0:
                boxes.append(RootBox(Interval(a, b)))
                continue
            # the single root must be an interior point where f vanishes
        m = (a + b) / 2
        if f.sign_at(m) == 0:
            boxes.append(RootBox(Interval(m, m)))
            d = (b - a) / 4
            while True:
                left, right = m - d, m + d
                if (f.sign_at(left) != 0 and f.sign_at(right) != 0
                        and count_real_roots(f, left, right) == 1):
                    break
                d /= 2
            stack.append((a, left, count_real_roots(f, a, left)))
            stack.append((right, b, count_real_roots(f, right, b)))
        else:
            stack.append((a, m, count_real_roots(f, a, m)))
            stack.append((m, b, count_real_roots(f, m, b)))
    if len(boxes) != total:
        raise IsolationError("real isolation lost a root")
    boxes.sort(key=lambda bx: (bx.re.lo, bx.re.hi))
    # bisection partitions the line, so neighbours share endpoints; shrink
    # until the boxes are pairwise strictly disjoint
    changed = True
    while changed:
        changed = False
        for i in range(len(boxes) - 1):
            a, b = boxes[i], boxes[i + 1]
            if a.re.hi >= b.re.lo:
                if a.re.width > 0:
                    boxes[i] = refine_real_box(f, a, a.re.width / 4)
                if b.re.width > 0:
                    boxes[i + 1] = refine_real_box(f, b, b.re.width / 4)
                changed = True
    return boxes


def _grid_bits(eps: Fraction) -> int:
    """Bits of the dyadic grid that refinement to width eps rounds onto:
    about log2(1/eps) + 24, so endpoints stay small and steps stay exact."""
    return max(16, eps.denominator.bit_length() - eps.numerator.bit_length() + 8) + 16


def _grid_point(x: Fraction, bits: int) -> Fraction:
    """The grid point at or just below x."""
    return Fraction((x.numerator << bits) // x.denominator, 1 << bits)


def refine_real_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Shrink a certified real interval to width <= eps (same root)."""
    if eps <= 0:
        raise IsolationError("eps must be positive")
    lo, hi = box.re.lo, box.re.hi
    if lo == hi:
        return box
    s_lo = f.sign_at(lo)
    if s_lo == 0:
        return RootBox(Interval(lo, lo))
    bits = _grid_bits(eps)
    deriv = f.derivative().coeffs
    while hi - lo > eps:
        # interval Newton step when the derivative has constant sign
        d_iv = poly_eval_interval(deriv, Interval(lo, hi))
        stepped = False
        if not d_iv.contains(0):
            m = (lo + hi) / 2
            fm = Fraction(f(m))
            if fm == 0:
                return RootBox(Interval(m, m))
            n_iv = Interval(m) - Interval(fm) / d_iv
            nlo, nhi = max(n_iv.lo, lo), min(n_iv.hi, hi)
            if nlo <= nhi and (nhi - nlo) <= (hi - lo) * Fraction(3, 4):
                g = Interval(nlo, nhi).round_out(bits)
                nlo, nhi = max(g.lo, lo), min(g.hi, hi)
                s_nlo, s_nhi = f.sign_at(nlo), f.sign_at(nhi)
                if s_nlo == 0:
                    return RootBox(Interval(nlo, nlo))
                if s_nhi == 0:
                    return RootBox(Interval(nhi, nhi))
                # keep the sign-change invariant
                if s_nlo * s_nhi < 0:
                    lo, hi, s_lo = nlo, nhi, s_nlo
                    stepped = True
        if not stepped:
            m = _grid_point((lo + hi) / 2, bits)
            sm = f.sign_at(m)
            if sm == 0:
                return RootBox(Interval(m, m))
            if sm == s_lo:
                lo = m
            else:
                hi = m
    return RootBox(Interval(lo, hi))


# ---------------------------------------------------------------------------
# complex certification (exact Krawczyk operator)


def _cpoly_eval(coeffs, zr: Fraction, zi: Fraction) -> tuple[Fraction, Fraction]:
    """Complex Horner at a rational point, run on the integers q^k acc (q
    the common denominator of zr and zi), as `poly_eval_rect` does."""
    q = lcm(zr.denominator, zi.denominator)
    a, b = zr.numerator * (q // zr.denominator), zi.numerator * (q // zi.denominator)
    ar = ai = 0
    qk = 1
    for c in reversed(coeffs):
        ar, ai = ar * a - ai * b + c * qk, ar * b + ai * a
        qk *= q
    return Fraction(ar * q, qk), Fraction(ai * q, qk)


def _rect_meet(a: Rect, b: Rect) -> Rect:
    """Componentwise intersection of two enclosures of the same set."""
    try:
        return Rect(a.re.intersect(b.re), a.im.intersect(b.im))
    except IntervalError:
        return a  # disagreement is rounding noise; either enclosure is valid


def _derivative_enclosure(f: IntPolynomial, x: Rect, mid: Rect,
                          mr: Fraction, mi: Fraction) -> Rect:
    """Enclosure of f' over x: the mean-value form f'(m) + f''(x)(x - m)
    intersected with raw Horner; the former kills the cancellation blowup
    of big-coefficient polynomials."""
    deriv = f.derivative()
    raw = poly_eval_rect(deriv.coeffs, x)
    if f.degree >= 2:
        dr, di = _cpoly_eval(deriv.coeffs, mr, mi)
        d2 = poly_eval_rect(deriv.derivative().coeffs, x)
        taylor = Rect(Interval(dr), Interval(di)) + d2 * (x - mid)
        return _rect_meet(taylor, raw)
    return raw


def krawczyk_passes(f: IntPolynomial, box: RootBox) -> bool:
    """Exact inclusion test: True certifies exactly one root of f in the box."""
    deriv = f.derivative().coeffs
    mr, mi = box.re.mid, box.im.mid
    fr, fi = _cpoly_eval(f.coeffs, mr, mi)
    dr, di = _cpoly_eval(deriv, mr, mi)
    norm = dr * dr + di * di
    if norm == 0:
        return False
    cr, ci = dr / norm, -di / norm
    c = Rect(Interval(cr), Interval(ci))
    mid = Rect(Interval(mr), Interval(mi))
    fp_x = _derivative_enclosure(f, box, mid, mr, mi)
    one_minus = Rect(Interval(1), Interval(0)) - c * fp_x
    k = mid - c * Rect(Interval(fr), Interval(fi)) + one_minus * (box - mid)
    return box.strictly_contains(k)


def _exclusion(f: IntPolynomial, rect: Rect) -> bool:
    """True when the interval evaluation certifies there is no root in rect."""
    return not poly_eval_rect(f.coeffs, rect).contains_zero()


_SPLIT_OFFSETS = (Fraction(1, 2), Fraction(17, 32), Fraction(15, 32),
                  Fraction(9, 16), Fraction(7, 16))


def refine_complex_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Shrink a certified non-real box to width <= eps (same root)."""
    if eps <= 0:
        raise IsolationError("eps must be positive")
    bits = _grid_bits(eps)
    cur = box
    guard = 0
    while cur.width > eps:
        guard += 1
        if guard > 100000:
            raise IsolationError("complex refinement stalled")
        mr, mi = cur.mid()
        d_iv = _derivative_enclosure(f, cur, Rect(Interval(mr), Interval(mi)), mr, mi)
        stepped = False
        if not d_iv.contains_zero():
            fr, fi = _cpoly_eval(f.coeffs, mr, mi)
            n = Rect(Interval(mr), Interval(mi)) - \
                Rect(Interval(fr), Interval(fi)) * rect_inverse(d_iv)
            try:
                nre = n.re.intersect(cur.re)
                nim = n.im.intersect(cur.im)
            except IntervalError:
                raise IsolationError("Newton step lost the root (box not certified?)")
            if max(nre.width, nim.width) <= cur.width * Fraction(3, 4):
                nre = nre.round_out(bits).intersect(cur.re)
                nim = nim.round_out(bits).intersect(cur.im)
                cur = RootBox(nre, nim)
                stepped = True
        if not stepped:
            cur = _quadrisect(f, cur, bits)
    return cur


def _quadrisect(f: IntPolynomial, box: RootBox, bits: int) -> RootBox:
    for off in _SPLIT_OFFSETS:
        rs = _split_interval(box.re, off, bits)
        ims = _split_interval(box.im, off, bits)
        for r_part in rs:
            for i_part in ims:
                try:
                    sub = RootBox(r_part, i_part)
                except IsolationError:
                    continue
                if _exclusion(f, sub):
                    continue
                if krawczyk_passes(f, sub):
                    return sub
    raise IsolationError("quadrisection failed to re-certify a sub-box")


def _split_interval(iv: Interval, off: Fraction, bits: int) -> tuple[Interval, Interval]:
    cut = max(iv.lo, _grid_point(iv.lo + (iv.hi - iv.lo) * off, bits))
    return Interval(iv.lo, cut), Interval(cut, iv.hi)


# ---------------------------------------------------------------------------
# full isolation


def _mpf_to_fraction(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    if man == 0:
        if x == 0:
            return Fraction(0)
        raise IsolationError("non-finite numeric seed")
    v = Fraction(man) * (Fraction(2) ** exp)
    return -v if sign else v


def _numeric_seeds(f: IntPolynomial, dps: int):
    """(re, im, newton_correction) triples; the correction estimates the
    distance from the seed to the true root (heuristically, for sizing)."""
    import mpmath  # loaded only when a polynomial has non-real roots

    coeffs = [mpmath.mpf(c) for c in reversed(f.coeffs)]
    deriv = [mpmath.mpf(c) for c in reversed(f.derivative().coeffs)]
    out = []
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(coeffs, maxsteps=200, extraprec=dps * 4)
        for z in roots:
            z = mpmath.mpc(z)
            fv = mpmath.polyval(coeffs, z)
            dv = mpmath.polyval(deriv, z)
            corr = abs(fv / dv) if dv != 0 else mpmath.inf
            est = Fraction(str(mpmath.nstr(corr, 8))) if mpmath.isfinite(corr) else None
            out.append((_mpf_to_fraction(z.real), _mpf_to_fraction(z.imag), est))
    return out


def isolate_roots(f: IntPolynomial, real_boxes=None) -> list[RootBox]:
    """Certified disjoint boxes, one per distinct root of squarefree f.

    Real roots come first (ascending), then non-real roots sorted by
    (re midpoint, im midpoint); conjugate roots appear as mirrored boxes.
    `real_boxes`, when given, is `isolate_real_roots(f)` already computed.
    """
    real_boxes = list(isolate_real_roots(f) if real_boxes is None else real_boxes)
    pairs = f.degree - len(real_boxes)
    if pairs % 2:
        raise IsolationError("parity mismatch between real count and degree")
    pairs //= 2
    if pairs == 0:
        return real_boxes

    dps = max(30, 2 * f.degree)
    n_real = len(real_boxes)
    while True:
        upper = _certify_upper_half(f, pairs, n_real, dps)
        if upper is not None:
            break
        dps *= 2
        if dps > 4000:
            raise IsolationError("cannot certify complex roots of %s" % f)
    # pairwise disjoint by construction: the real boxes are shrunk apart, the
    # upper boxes are checked pairwise and have im.lo > 0, and mirrors lie below
    boxes = list(real_boxes)
    upper.sort(key=lambda b: (b.re.mid, b.im.mid))
    for ub in upper:
        boxes.append(ub)
        boxes.append(ub.mirror())
    return boxes


def _certify_upper_half(f: IntPolynomial, pairs: int, n_real: int,
                        dps: int) -> list[RootBox] | None:
    from mpmath.libmp import NoConvergence

    try:
        seeds = _numeric_seeds(f, dps)
    except (NoConvergence, ZeroDivisionError):
        return None
    # numeric real roots can carry imaginary noise; the exact Sturm count
    # says how many seeds to treat as real (certification stays exact)
    seeds = sorted(seeds, key=lambda s: (abs(s[1]), s[0]))
    candidates = seeds[n_real:]
    ups = [(re, im, est) for re, im, est in candidates if im > 0]
    if len(ups) != pairs:
        return None
    # minimum chebyshev distance between any two seeds bounds safe box radius
    min_sep = None
    for i in range(len(seeds)):
        for j in range(i + 1, len(seeds)):
            d = max(abs(seeds[i][0] - seeds[j][0]), abs(seeds[i][1] - seeds[j][1]))
            if min_sep is None or d < min_sep:
                min_sep = d
    if not min_sep:
        return None
    out = []
    for re, im, est in ups:
        if est is None or est * 16 > min_sep:
            return None  # seeds not credibly separated; escalate precision
        r0 = min(min_sep / 4, im / 2)
        # the seed is accurate far below the separation, so a box 4096
        # Newton corrections wide usually certifies at once, and refinement
        # then starts from it; otherwise widest first.  Below ~4x the
        # Newton-correction estimate the box can no longer be trusted to
        # contain the root, so give up and escalate seeding precision
        radii = {r0 / 4 ** k for k in range(8)}
        if est > 0:
            radii |= {est * s for s in (4096, 256, 32, 8, 4)}
        radii = sorted((r for r in radii if est * 4 <= r <= r0),
                       key=lambda r: (r != est * 4096, -r))
        box = None
        for r in radii:
            re_iv = Interval(re - r, re + r).round_out(dps * 4)
            im_iv = Interval(im - r, im + r).round_out(dps * 4)
            if im_iv.lo <= 0:
                return None
            cand = RootBox(re_iv, im_iv)
            if krawczyk_passes(f, cand):
                box = cand
                break
        if box is None:
            return None
        out.append(box)
    for i in range(len(out)):
        for j in range(i + 1, len(out)):
            if out[i].intersects(out[j]):
                return None
    return out


def refine_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Refine either kind of box; result is contained in the input box.

    Moved endpoints are rounded outward onto a dyadic grid about 2^-24 below
    eps, so exact arithmetic never meets unbounded fractions."""
    if box.is_real:
        return refine_real_box(f, box, eps)
    return refine_complex_box(f, box, eps)
