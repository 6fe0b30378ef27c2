"""Certified root isolation for squarefree integer polynomials.

Real roots are isolated by Sturm-count bisection, so every real box is
certified by an exact sign-variation count, and `isolate_real_roots` needs
nothing else.  Non-real roots are certified all at once: Aberth-Ehrlich
iteration from Newton-polygon starting points approximates every root, in
Python floats at 53 bits and, only when those do not certify, in mpmath at
twice the precision each time; one exact Weierstrass-disc test
(`_certify_upper_half`) then certifies or refuses all the approximations
together.  No certificate depends on floating point.  Refinement is
interval Newton; where a complex Newton step does not contract, the box is
cut into quarters and the ones that interval evaluation excludes are
dropped, which needs no new certificate, as the box holds one root alone.
Both refiners run on integers: a box's corners become numerators over one
common denominator D (a multiple of the refinement grid), every quantity
of a step is an integer over a power of D, and Fractions are built only
for the returned box, which holds the same rationals that Fraction
interval arithmetic gives.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm

from .intervals import Interval, Rect, _horner_interval, _horner_point, _horner_rect, _imul, _sq
from .polys import (IntPolynomial, PolynomialError, _horner_int, count_real_roots, root_bound,
                    sturm_chain)


class IsolationError(ArithmeticError):
    pass


class RootBox(Rect):
    """A rectangle certified to contain exactly one root of its polynomial.

    Real roots live in a rational interval on the real line; non-real roots
    in a rational-cornered rectangle that stays off the real axis.
    """

    __slots__ = ("is_real",)

    def __init__(self, re: Interval, im: Interval | None = None):
        # slots are set directly, skipping Rect.__init__: boxes are built in
        # hot loops, so the axis tests read the endpoints' numerator signs
        is_real = im is None or im.lo.numerator == 0 == im.hi.numerator
        if not is_real and im.lo.numerator <= 0 <= im.hi.numerator:
            raise IsolationError("non-real box may not meet the real axis")
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", _ZERO if is_real else im)
        object.__setattr__(self, "is_real", is_real)

    def __repr__(self):
        if self.is_real:
            return "RootBox([%s, %s])" % (self.re.lo, self.re.hi)
        return "RootBox(re=[%s, %s], im=[%s, %s])" % (
            self.re.lo, self.re.hi, self.im.lo, self.im.hi)

    def mirror(self) -> "RootBox":
        if self.is_real:
            return self
        return RootBox(self.re, -self.im)


_ZERO = Interval(0)  # the imaginary part of every real box


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


def _round_out(lo: int, hi: int, k: int, g: int, a: int, b: int) -> tuple[int, int]:
    """[lo, hi] / (k D) widened outward onto the grid of step g / D and met
    with [a, b] / D; the result is over D."""
    step = k * g
    return max(lo // step * g, a), min(-(-hi // step) * g, b)


def refine_real_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Shrink a certified real interval to width <= eps (same root).

    The loop runs on integers: lo and hi are numerators L, H over
    D = lcm(their denominators, 2^bits), so it compares exactly the
    rationals of interval Newton in Fractions."""
    if eps <= 0:
        raise IsolationError("eps must be positive")
    lo, hi = box.re.lo, box.re.hi
    if lo == hi:
        return box
    coeffs, n = f.coeffs, f.degree
    s_lo = f.sign_at(lo)
    if s_lo == 0:
        return RootBox(Interval(lo, lo))
    pos = s_lo > 0  # the sign of f at lo, kept as the loop moves lo
    bits = _grid_bits(eps)
    D = lcm(lo.denominator, hi.denominator, 1 << bits)
    g = D >> bits  # one grid step, over D
    L, H = lo.numerator * (D // lo.denominator), hi.numerator * (D // hi.denominator)
    deriv = f.derivative().coeffs
    while (H - L) * eps.denominator > eps.numerator * D:
        # interval Newton step when the derivative has constant sign
        dlo, dhi = _horner_interval(deriv, L, H, D)  # f' over [lo, hi], over D^(n-1)
        stepped = False
        if dlo > 0 or dhi < 0:
            M = L + H  # the midpoint m, over 2D
            fm = _horner_int(coeffs, M, 2 * D)  # over (2D)^n
            if fm == 0:
                return RootBox(Interval(Fraction(M, 2 * D)))
            # m - f(m)/d for d at both ends of f': over 2^n D dlo dhi = K D
            P = dlo * dhi
            base, K = M * P << (n - 1), P << n
            e1, e2 = base - fm * dhi, base - fm * dlo
            nlo, nhi = max(min(e1, e2), L * K), min(max(e1, e2), H * K)
            if nlo <= nhi and 4 * (nhi - nlo) <= 3 * (H - L) * K:
                nlo, nhi = _round_out(nlo, nhi, K, g, L, H)
                v_lo, v_hi = _horner_int(coeffs, nlo, D), _horner_int(coeffs, nhi, D)
                if v_lo == 0:
                    return RootBox(Interval(Fraction(nlo, D)))
                if v_hi == 0:
                    return RootBox(Interval(Fraction(nhi, D)))
                # keep the sign-change invariant
                if (v_lo > 0) != (v_hi > 0):
                    L, H, pos = nlo, nhi, v_lo > 0
                    stepped = True
        if not stepped:
            m = (L + H) // (2 * g) * g  # the grid point at or below the midpoint
            vm = _horner_int(coeffs, m, D)
            if vm == 0:
                return RootBox(Interval(Fraction(m, D)))
            if (vm > 0) == pos:
                L = m
            else:
                H = m
    return RootBox(Interval(Fraction(L, D), Fraction(H, D)))


# ---------------------------------------------------------------------------
# complex refinement (interval Newton, subdivision by exclusion)


def _derivative_enclosure(deriv, deriv2, a: int, b: int, c: int, d: int,
                          q: int) -> tuple[int, int, int, int]:
    """Enclosure of f' over the box ([a, b] + i[c, d]) / q, over (2q)^(n-1)
    (deriv, deriv2: the coefficients of f', f''), for the Newton step of
    `refine_complex_box`: the mean-value form f'(m) + f''(x)(x - m)
    intersected with raw Horner; the former kills the cancellation blowup
    of big-coefficient polynomials.  Both enclose the exact image of f', so
    they always meet."""
    q2 = 2 * q
    r0, r1, i0, i1 = _horner_rect(deriv, 2 * a, 2 * b, 2 * c, 2 * d, q2)
    if len(deriv) < 2:
        return r0, r1, i0, i1
    dr, di = _horner_point(deriv, a + b, c + d, q2)
    s0, s1, t0, t1 = _horner_rect(deriv2, 2 * a, 2 * b, 2 * c, 2 * d, q2)
    # x - m is [-wr, wr] + i[-wi, wi] over 2q, so the product is symmetric
    wr, wi = b - a, d - c
    sm, tm = max(-s0, s1), max(-t0, t1)  # max |f''| over x, per part
    hr, hi = sm * wr + tm * wi, sm * wi + tm * wr
    return max(dr - hr, r0), min(dr + hr, r1), max(di - hi, i0), min(di + hi, i1)


_MAX_STEPS = 100000  # Newton steps and boxes cut in one complex refinement


def refine_complex_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Shrink a certified non-real box to width <= eps (same root).

    The loop runs on integers: the corners are numerators a, b, c, d over
    D = lcm(their denominators, 2^bits), so a Newton step compares exactly
    the rationals of rectangle Newton in Fractions.  Where the Newton test
    fails or a step does not contract by 3/4, `_subdivide` shrinks the box."""
    if eps <= 0:
        raise IsolationError("eps must be positive")
    bits = _grid_bits(eps)
    corners = (box.re.lo, box.re.hi, box.im.lo, box.im.hi)
    D = lcm(1 << bits, *(x.denominator for x in corners))
    g = D >> bits  # one grid step, over D
    a, b, c, d = (x.numerator * (D // x.denominator) for x in corners)
    deriv = f.derivative()
    dc, d2c = deriv.coeffs, deriv.derivative().coeffs
    steps = 0
    while max(b - a, d - c) * eps.denominator > eps.numerator * D:
        steps += 1
        if steps > _MAX_STEPS:
            raise IsolationError("complex refinement stalled")
        r0, r1, i0, i1 = _derivative_enclosure(dc, d2c, a, b, c, d, D)  # over (2D)^(n-1)
        stepped = False
        if not (r0 <= 0 <= r1 and i0 <= 0 <= i1):
            mr, mi = a + b, c + d  # the midpoint, over 2D
            fr, fi = _horner_point(f.coeffs, mr, mi, 2 * D)  # over (2D)^n
            # 1/f' = conj(f') / |f'|^2, |f'|^2 in [e0, e1] / (2D)^(2n-2), e0 > 0:
            # its parts are vr, vi times (2D)^(n-1) / (e0 e1)
            sr, si = _sq(r0, r1), _sq(i0, i1)
            e0, e1 = sr[0] + si[0], sr[1] + si[1]
            vr, vi = _imul(r0, r1, e0, e1), _imul(-i1, -i0, e0, e1)
            # m - f(m)/f': over 2D e0 e1 = K D
            E = e0 * e1
            K = 2 * E
            pr, pi = _imul(fr, fr, *vr), _imul(fi, fi, *vi)
            qr, qi = _imul(fr, fr, *vi), _imul(fi, fi, *vr)
            x0, x1 = max(mr * E - (pr[1] - pi[0]), a * K), min(mr * E - (pr[0] - pi[1]), b * K)
            y0, y1 = max(mi * E - (qr[1] + qi[1]), c * K), min(mi * E - (qr[0] + qi[0]), d * K)
            if x0 > x1 or y0 > y1:
                raise IsolationError("Newton step lost the root (box not certified?)")
            if 4 * max(x1 - x0, y1 - y0) <= 3 * max(b - a, d - c) * K:
                a, b = _round_out(x0, x1, K, g, a, b)
                c, d = _round_out(y0, y1, K, g, c, d)
                stepped = True
        if not stepped:
            a, b, c, d, steps = _subdivide(f.coeffs, a, b, c, d, D, g, steps)
    return RootBox(Interval(Fraction(a, D), Fraction(b, D)),
                   Interval(Fraction(c, D), Fraction(d, D)))


def _subdivide(coeffs, a: int, b: int, c: int, d: int, q: int, g: int,
               steps: int) -> tuple[int, int, int, int, int]:
    """Cut the box ([a, b] + i[c, d]) / q, which holds exactly one root,
    into quarters at grid points (step g, over q), drop each quarter whose
    rectangle Horner enclosure excludes 0, and cut the quarters left again
    until their bounding box is at most 3/4 as wide.  That box lies in the
    input box and covers every place the root can be, so it holds the root
    alone and needs no new certificate.  `steps` counts the boxes cut."""
    width = max(b - a, d - c)
    boxes = [(a, b, c, d)]
    while 4 * max(b - a, d - c) > 3 * width:
        kept = []
        for a0, b0, c0, d0 in boxes:
            steps += 1
            if steps > _MAX_STEPS:
                raise IsolationError("complex refinement stalled")
            x, y = (a0 + b0) // (2 * g) * g, (c0 + d0) // (2 * g) * g
            for re in ((a0, x), (x, b0)) if a0 < x else ((a0, b0),):
                for im in ((c0, y), (y, d0)) if c0 < y else ((c0, d0),):
                    r0, r1, i0, i1 = _horner_rect(coeffs, *re, *im, q)
                    if r0 <= 0 <= r1 and i0 <= 0 <= i1:
                        kept.append(re + im)
        if not kept:
            raise IsolationError("subdivision lost the root (box not certified?)")
        boxes = kept
        a, b = min(k[0] for k in kept), max(k[1] for k in kept)
        c, d = min(k[2] for k in kept), max(k[3] for k in kept)
    return a, b, c, d, steps


# ---------------------------------------------------------------------------
# full isolation: Aberth seeds, Weierstrass inclusion discs


# Escalation stops past 53 * 2^8 = 13,568 bits, about 4,000 digits.
_MAX_PREC = 53 << 8


def _start_points(f: IntPolynomial) -> list[tuple[Fraction, Fraction]]:
    """Exact starting points for all roots of f: for each edge of the upper
    Newton polygon of (k, bit length of a_k), as many points as the edge is
    long, on the circle of radius 2^e with e the rounded slope; roots at 0
    start at 0.

    Point k lies at the angle of sigma * omega^k, sigma = (12+5i)/13 and
    omega = (3+4i)/5: Gaussian rationals, so no start depends on the host's
    libm.  As 12+5i = i(3-2i)^2 and 3+4i = (2+i)^2, unique factorization in
    Z[i] keeps (12+5i)(3+4i)^k off both axes (a real polynomial would keep
    a real start real) and omega from being a root of unity (so no two
    starts coincide)."""
    hull: list[tuple[int, int]] = []
    for k, c in enumerate(f.coeffs):
        if not c:
            continue
        b = abs(c).bit_length()
        while len(hull) >= 2 and ((hull[-1][0] - hull[-2][0]) * (b - hull[-2][1])
                                  >= (hull[-1][1] - hull[-2][1]) * (k - hull[-2][0])):
            hull.pop()
        hull.append((k, b))
    points = [(Fraction(0), Fraction(0))] * hull[0][0]
    sx, sy, sd = 12, 5, 13
    for (i, bi), (j, bj) in zip(hull, hull[1:]):
        e = (2 * (bi - bj) + (j - i)) // (2 * (j - i))  # round((bi - bj) / (j - i))
        num, den = (1 << e, 1) if e >= 0 else (1, 1 << -e)
        for _ in range(j - i):
            points.append((Fraction(sx * num, sd * den), Fraction(sy * num, sd * den)))
            sx, sy, sd = 3 * sx - 4 * sy, 4 * sx + 3 * sy, 5 * sd
    return points


def _aberth(f: IntPolynomial, prec: int, real, cplx) -> list | None:
    """Aberth-Ehrlich approximations to all roots of f, written once over
    + - * / of one number type: `real` rounds a Fraction into it and `cplx`
    pairs two of its values.  Gauss-Seidel sweeps from `_start_points`; a
    root is frozen once its correction is below 2^(12-prec) of its modulus,
    and at most 20 + 4n + prec/4 sweeps run (a cluster converges only
    linearly, the more slowly the tighter it is).  None when a value is not
    finite."""
    n = f.degree
    coeffs = [real(Fraction(c)) for c in reversed(f.coeffs)]
    z = [cplx(real(x), real(y)) for x, y in _start_points(f)]
    tol2 = real(Fraction(1, 1 << 2 * (prec - 12)))
    active = list(range(n))
    for _ in range(20 + 4 * n + prec // 4):
        moving = []
        for i in active:
            zi = z[i]
            p = d = 0
            for c in coeffs:  # f(zi) and f'(zi) by Horner
                d = d * zi + p
                p = p * zi + c
            if p == 0:
                continue  # zi is a root
            s = d / p
            for j in range(n):
                if j != i:
                    s -= 1 / (zi - z[j])
            w = 1 / s
            z[i] = zi - w
            w2 = w.real * w.real + w.imag * w.imag
            if w2 - w2 != 0:  # inf or nan
                return None
            if w2 > tol2 * (zi.real * zi.real + zi.imag * zi.imag):
                moving.append(i)
        active = moving
        if not active:
            break
    return z


def _aberth_seeds(f: IntPolynomial, prec: int) -> list[tuple[Fraction, Fraction]] | None:
    """`_aberth` at `prec` bits as exact dyadic points: in Python floats at
    53 bits, in mpmath (imported only then) above; None when it fails."""
    try:
        if prec <= 53:
            z, exact = _aberth(f, prec, float, complex), Fraction
        else:
            import mpmath
            from mpmath.libmp import to_rational

            with mpmath.workprec(prec):
                z = _aberth(f, prec, lambda x: mpmath.mpf(x.numerator) / x.denominator,
                            mpmath.mpc)

            def exact(x):
                return Fraction(*to_rational(x._mpf_))
        return None if z is None else [(exact(v.real), exact(v.imag)) for v in z]
    except (OverflowError, ZeroDivisionError, ValueError):
        return None  # a value overflowed or is inf or nan, or a divisor is 0


def isolate_roots(f: IntPolynomial, real_boxes=None) -> list[RootBox]:
    """Certified disjoint boxes, one per distinct root of squarefree f.

    Real roots come first (ascending), then non-real roots sorted by
    (re midpoint, im midpoint); conjugate roots appear as mirrored boxes.
    `real_boxes`, when given, is `isolate_real_roots(f)` already computed.
    Non-real roots are seeded at 53 bits, then at twice the precision until
    `_certify_upper_half` accepts the seeds, up to `_MAX_PREC`.
    """
    real_boxes = list(isolate_real_roots(f) if real_boxes is None else real_boxes)
    pairs = f.degree - len(real_boxes)
    if pairs % 2:
        raise IsolationError("parity mismatch between real count and degree")
    if pairs == 0:
        return real_boxes
    prec = 53
    while True:
        seeds = _aberth_seeds(f, prec)
        upper = None if seeds is None else _certify_upper_half(f, seeds, len(real_boxes))
        if upper is not None:
            break
        prec *= 2
        if prec > _MAX_PREC:
            raise IsolationError("cannot certify complex roots of %s" % f)
    # pairwise disjoint: the upper boxes are certified apart and have
    # im.lo > 0, their mirrors lie below, and real boxes lie on the axis
    boxes = list(real_boxes)
    upper.sort(key=lambda b: (b.re.mid, b.im.mid))
    for ub in upper:
        boxes.append(ub)
        boxes.append(ub.mirror())
    return boxes


def _dyadic_sqrt_up(x: Fraction) -> Fraction:
    """A dyadic rational >= sqrt(x) > 0 with 8 or 9 significant bits."""
    e = (x.numerator.bit_length() - x.denominator.bit_length()) // 2 - 8
    num, den = ((x.numerator, x.denominator << 2 * e) if e >= 0
                else (x.numerator << -2 * e, x.denominator))
    s = -(-num // den)
    r = isqrt(s)
    r += r * r < s
    return Fraction(r << e) if e >= 0 else Fraction(r, 1 << -e)


def _certify_upper_half(f: IntPolynomial, seeds, n_real: int) -> list[RootBox] | None:
    """Boxes certified to hold exactly the roots of f in the upper half
    plane, one each, from `seeds`: one rational approximation per root (all
    n of them); None when the seeds do not certify.

    Theorem (Gerschgorin's theorem for the matrix diag(z) - W 1^T, whose
    characteristic polynomial is f / lead; Carstensen, Numer. Math. 59,
    1991, after Braess and Hadeler, Numer. Math. 21, 1973): with the
    Weierstrass corrections W_i = f(z_i) / (lead * prod_{j != i} (z_i - z_j))
    every root of f lies in a disc D(z_i - W_i, (n-1)|W_i|), and a union of
    m of these discs that meets no other holds exactly m roots.  Each lies
    in D_i = D(z_i, r_i), r_i >= n|W_i| computed exactly and rounded up to
    a dyadic with 8 or 9 significant bits.  The seeds certify when

    * |z_i - z_j| > (3/2)(r_i + r_j) for every pair, so the D_i are
      disjoint and each holds exactly one root; the square z_i + [-r_i,
      r_i]^2 reaches at most sqrt(2) r_i from z_i, so it meets no other D_j
      and holds that root alone;
    * exactly `n_real` (the Sturm count) of the D_i meet the real axis, so
      those hold the real roots and every other D_i a non-real one.

    The boxes are the squares of the D_i above the axis (Im z_i > r_i): one
    for each root in the upper half plane, and each off the real axis.
    """
    n = f.degree
    q = lcm(*(v.denominator for z in seeds for v in z))
    pts = [(x.numerator * (q // x.denominator), y.numerator * (q // y.denominator))
           for x, y in seeds]
    # |z_i - z_j|^2 q^2, exact
    d2 = [[(a - c) ** 2 + (b - d) ** 2 for c, d in pts] for a, b in pts]
    radii = []
    for i, (x, y) in enumerate(pts):
        prod = f.coeffs[-1] ** 2
        for j in range(n):
            if j != i:
                prod *= d2[i][j]
        if prod == 0:
            return None  # two seeds coincide
        fr, fi = _horner_point(f.coeffs, x, y, q)  # f(z_i), over q^n
        w2 = Fraction(n * n * (fr * fr + fi * fi), q * q * prod)  # (n |W_i|)^2
        # a seed that is a root gets a disc far inside the seeds' grid
        radii.append(_dyadic_sqrt_up(w2) if w2 else Fraction(1, 1 << q.bit_length() + 8))
    # the comparisons run on integers over the common denominator big_q
    big_q = lcm(q, *(r.denominator for r in radii))
    s = big_q // q
    rad = [r.numerator * (big_q // r.denominator) for r in radii]
    for i in range(n):
        for j in range(i + 1, n):
            if 4 * d2[i][j] * s * s <= 9 * (rad[i] + rad[j]) ** 2:
                return None
    if sum(abs(b) * s <= r for (_, b), r in zip(pts, rad)) != n_real:
        return None
    return [RootBox(Interval(x - r, x + r), Interval(y - r, y + r))
            for (x, y), (_, b), r, rq in zip(seeds, pts, radii, rad) if b * s > rq]


def refine_box(f: IntPolynomial, box: RootBox, eps: Fraction) -> RootBox:
    """Refine either kind of box; result is contained in the input box.

    Moved endpoints (Newton's, rounded outward, and the cuts of complex
    subdivision) lie on a dyadic grid about 2^-24 below eps, so exact
    arithmetic never meets unbounded fractions; each step runs on integer
    numerators over one common denominator of the box and the grid."""
    if box.is_real:
        return refine_real_box(f, box, eps)
    return refine_complex_box(f, box, eps)
