"""Threshold constants and the constrained minimizations behind them.

`rho` produces the exact algebraic threshold (the root > 1 of
x^-2 + C^-1 x^-delta = 1) together with a certified log enclosure.  The
segment minimization and the b-weight optimization run a certified
branch-and-bound over interval-evaluated objectives, so their minima come
with true enclosures rather than float estimates.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

from .algebraic import AlgebraicNumber
from .forms import (ExceptionalSet, MultihomogeneousPolynomial, c_max, c_value,
                    degree_data, delta, require_valid)
from .frozen import Frozen
from .intervals import (Interval, exp_fraction, exp_interval, ln_fraction, log_interval,
                        xlogx_interval)
from .polys import IntPolynomial
from .roots import RootBox


class ThresholdError(ValueError):
    pass


# ---------------------------------------------------------------------------
# the exact threshold rho


@lru_cache(maxsize=32)
def rho(c_f: int, dlt, bits: int = 128) -> tuple[AlgebraicNumber, Interval]:
    """The unique real root > 1 of x^-2 + c_f^-1 x^-delta = 1, as an exact
    algebraic number plus a certified enclosure of its natural log.

    With delta = p/q in lowest terms and w = x^(-1/q), the equation clears to
    c_f w^(2q) + w^p - c_f = 0 with a unique root w in (0, 1); rho = w^-q.
    Results are cached and shared: the tuple, the interval and the
    algebraic number are immutable.
    """
    dlt = Fraction(dlt)
    c_f = int(c_f)
    if c_f < 1:
        raise ThresholdError("C_F must be a positive integer")
    if dlt < 0:
        raise ThresholdError("delta must be nonnegative")
    if dlt == 0 and c_f <= 1:
        raise ThresholdError(
            "delta = 0 requires C_F > 1 for a root larger than 1 to exist")
    p, q = dlt.numerator, dlt.denominator
    coeffs = [-c_f] + [0] * max(p, 2 * q)
    coeffs[p] += 1
    coeffs[2 * q] += c_f
    w = AlgebraicNumber.from_root(IntPolynomial(coeffs), RootBox(Interval(0, 1)))
    value = w.pow(q).inv()
    # sanity: rho > 1 and the defining equation holds on the enclosure
    if value.sub(AlgebraicNumber.one()).sign() <= 0:
        raise ThresholdError("threshold root did not exceed 1")
    wbox = w.box(Fraction(1, 1 << (bits + 8))).re
    residual = wbox.pow_int(2 * q) + wbox.pow_int(p) / c_f - 1
    if not residual.contains(0):
        raise ThresholdError("residual check failed")
    rho_iv = value.interval(Fraction(1, 1 << (bits + 8)))
    return value, log_interval(rho_iv, bits)


# ---------------------------------------------------------------------------
# certified branch-and-bound minimization on an interval


class MinimizationResult(Frozen):
    """argmin: the exact rational point achieving the upper bound;
    bracket: an interval certain to contain every minimizer;
    value: a certified enclosure of the minimum value;
    interior: whether the bracket lies strictly inside the domain."""

    __slots__ = ("argmin", "bracket", "value", "interior")

    def __repr__(self):
        return "MinimizationResult(argmin=%.12g, value=%r)" % (float(self.argmin), self.value)


def minimize_on_interval(f_iv, lo: Fraction, hi: Fraction,
                         value_bits: int) -> MinimizationResult:
    """Branch-and-bound minimum of an interval-extension objective.

    f_iv(Interval) must return a certified enclosure of the range; the
    result encloses the global minimum to within 2^-value_bits.
    """
    tol = Fraction(1, 1 << value_bits)
    counter = 0

    def seg(a, b):
        nonlocal counter
        counter += 1
        iv = f_iv(Interval(a, b))
        return (iv.lo, counter, a, b)

    heap = [seg(lo, hi)]
    upper = f_iv(Interval(lo)).hi
    argmin = lo
    for cand in (hi, (lo + hi) / 2):
        v = f_iv(Interval(cand)).hi
        if v < upper:
            upper, argmin = v, cand
    iters = 0
    while True:
        iters += 1
        if iters > 200000:
            raise ThresholdError("minimization did not converge")
        low_bound = heap[0][0]
        if upper - low_bound <= tol:
            break
        _, _, a, b = heapq.heappop(heap)
        m = (a + b) / 2
        pv = f_iv(Interval(m)).hi
        if pv < upper:
            upper, argmin = pv, m
        for piece in (seg(a, m), seg(m, b)):
            if piece[0] <= upper:
                heapq.heappush(heap, piece)
        if iters % 64 == 0:
            heap = [s for s in heap if s[0] <= upper]
            heapq.heapify(heap)
    survivors = [s for s in heap if s[0] <= upper]
    b_lo = min(s[2] for s in survivors)
    b_hi = max(s[3] for s in survivors)
    low_bound = min(s[0] for s in survivors)
    return MinimizationResult(argmin, Interval(b_lo, b_hi), Interval(low_bound, upper),
                              b_lo > lo and b_hi < hi)


# ---------------------------------------------------------------------------
# the two-variable entropy-like minimization on a constraint segment


class SegmentMinSolution(Frozen):
    """Minimum of u*log(g*u/(u+v)) + v*log(v/(u+v)) on u,v >= 0,
    alpha*u + beta*v = 1, with the independently computed threshold root."""

    __slots__ = ("u", "v", "value", "root", "exp_neg_value")

    def __repr__(self):
        return ("SegmentMinSolution(u=%.9g, v=%.9g, l=%r, root=%r)"
                % (float(self.u), float(self.v), self.value, self.root))


def threshold_root(alpha: Fraction, beta: Fraction, gamma: Fraction,
                   bits: int = 96) -> Interval:
    """Enclosure, of relative width at most 2^-bits, of the root > 1 of
    gamma^-1 x^-alpha + x^-beta = 1.  In t = ln x, g(t) = gamma^-1 e^(-alpha t)
    + e^(-beta t) - 1 is convex and falls from 1/gamma towards -1, so a Newton
    step from where g > 0 stays at or below the root and the chord across a
    bracket meets 0 at or above it.  The working precision covers the slope
    -g'(t) >= min(alpha, beta) at the root."""
    work = bits + 32 + ceil(1 / min(alpha, beta)).bit_length()
    scale = 1 << (bits + 16)

    def g(t: Fraction) -> tuple[Interval, Interval]:  # enclosures of g(t) and -g'(t)
        ea = exp_fraction(-alpha * t, work) / gamma
        eb = exp_fraction(-beta * t, work)
        return ea + eb - 1, ea * alpha + eb * beta

    lo, hi, steps = Fraction(0), Fraction(1), 0
    if g(lo)[0].lo <= 0:
        raise ThresholdError("g(0) is not certified positive")
    limit = Fraction(1 << 20) / max(alpha, beta, 1)  # past it exp_fraction refuses
    while hi <= limit and g(hi)[0].hi >= 0:  # double until g is certified negative there
        hi, steps = 2 * hi, steps + 1
    if hi > limit:
        raise ThresholdError("threshold root lies past e^(2^20)")
    while hi - lo > Fraction(1, 1 << (bits + 8)):
        steps += 1
        (g_lo, slope), (g_hi, _) = g(lo), g(hi)
        # Newton from the left; where g(lo) is not certified positive it is no step
        new_lo = max(lo, Fraction(floor((lo + g_lo.lo / slope.hi) * scale), scale))
        new_hi = hi
        if g_hi.hi < 0:  # the chord, with g(lo) >= 0 > g(hi)
            chord = lo + (hi - lo) * g_lo.hi / (g_lo.hi - g_hi.hi)
            new_hi = min(hi, Fraction(ceil(chord * scale), scale))
        if (new_lo, new_hi) == (lo, hi) or steps > bits + 64:
            raise ThresholdError("threshold root did not converge")
        lo, hi = new_lo, new_hi
    return exp_interval(Interval(lo, hi), work)


def _segment_objective(alpha: Fraction, beta: Fraction, gamma: Fraction, work: int):
    """The objective u log(gamma u/(u+v)) + v log(v/(u+v)) of u on
    alpha u + beta v = 1, written as x log x pieces with 0 log 0 := 0.

    Returns its naive interval extension and the extension met with its
    mean-value form.  alpha = 0 is allowed: v is then 1/beta throughout.
    """
    ln_gamma = ln_fraction(gamma, work) if gamma != 1 else Interval(0)
    ab = alpha / beta

    def pieces(u_iv: Interval):
        v_iv = (1 - u_iv * alpha) * (1 / beta)
        v_iv = Interval(max(v_iv.lo, Fraction(0)), max(v_iv.hi, Fraction(0)))
        return v_iv, u_iv + v_iv

    def naive(u_iv: Interval) -> Interval:
        v_iv, s_iv = pieces(u_iv)
        return (xlogx_interval(u_iv, work) + u_iv * ln_gamma
                + xlogx_interval(v_iv, work) - xlogx_interval(s_iv, work))

    def objective(u_iv: Interval) -> Interval:
        out = naive(u_iv)
        if u_iv.width == 0:
            return out
        v_iv, s_iv = pieces(u_iv)
        if u_iv.lo <= 0 or v_iv.lo <= 0 or s_iv.lo <= 0:
            return out
        # mean-value form kills the first-order dependency slack:
        # f'(u) = ln u + ln gamma - (a/b) ln v - (1 - a/b) ln s
        dfu = (log_interval(u_iv, work) + ln_gamma
               - log_interval(v_iv, work) * ab
               - log_interval(s_iv, work) * (1 - ab))
        m = u_iv.mid
        centered = naive(Interval(m)) + dfu * (u_iv - m)
        return out.intersect(centered)

    return naive, objective


def segment_min(alpha, beta, gamma, bits: int = 64) -> SegmentMinSolution:
    """Certified minimizer of the segment objective, plus the cross-check
    root; e^(-min) and the root agree within the certified enclosures."""
    alpha, beta, gamma = Fraction(alpha), Fraction(beta), Fraction(gamma)
    if alpha <= 0 or beta <= 0 or gamma <= 0:
        raise ThresholdError("alpha, beta, gamma must be positive")
    work = bits + 32
    _, objective = _segment_objective(alpha, beta, gamma, work)
    res = minimize_on_interval(objective, Fraction(0), 1 / alpha, bits)
    u = res.argmin
    v = (1 - alpha * u) / beta
    root = threshold_root(alpha, beta, gamma, bits + 16)
    e_neg = exp_interval(-res.value, work)
    return SegmentMinSolution(u, v, res.value, root, e_neg)


# ---------------------------------------------------------------------------
# the b-weight bound and its optimum


def lambda_bound(b, dlt, c_f, bits: int = 64) -> Interval:
    """Upper bound for -log(lambda_v) at weight b:
    b*log(2bC/((1-db)+2b)) + ((1-db)/2)*log((1-db)/((1-db)+2b)),
    with the 0*log 0 := 0 endpoint convention.

    This is the segment objective at u = b, v = (1 - delta*b)/2, that is
    alpha = delta, beta = 2, gamma = C.
    """
    dlt, c_f = Fraction(dlt), Fraction(c_f)
    b_iv = b if isinstance(b, Interval) else Interval(Fraction(b))
    if b_iv.lo < 0:
        raise ThresholdError("b must be nonnegative")
    if dlt > 0 and b_iv.hi > 1 / dlt:
        raise ThresholdError("b outside [0, 1/delta]")
    naive, _ = _segment_objective(dlt, Fraction(2), c_f, bits + 32)
    return naive(b_iv)


class OptimalWeight(Frozen):
    __slots__ = ("b", "bracket", "bound", "interior")

    def __repr__(self):
        return "OptimalWeight(b=%.12g, bound=%r)" % (float(self.b), self.bound)


def optimal_b(dlt, c_f, bits: int = 60) -> OptimalWeight:
    """Minimize the lambda bound over feasible b; the certified minimum
    matches -log rho within 2^-bits."""
    dlt = Fraction(dlt)
    if dlt < 0:
        raise ThresholdError("delta must be nonnegative")
    if dlt == 0 and Fraction(c_f) <= 1:
        raise ThresholdError("delta = 0 requires C_F > 1 for the bound to have a minimum")
    # for delta = 0 the objective grows like b*log C eventually
    hi = 1 / dlt if dlt else Fraction(64)
    _, objective = _segment_objective(dlt, Fraction(2), Fraction(c_f), bits + 56)
    res = minimize_on_interval(objective, Fraction(0), hi, bits)
    return OptimalWeight(res.argmin, res.bracket, res.value, res.interior)


def xi_peak(a, b, c, bits: int = 64):
    """Maximizer xi0 = a/(a+2b) of b*log(c(1-xi)) + (a/2)*log(xi) on [0,1]
    and the exact-formula peak value as a certified interval."""
    a, b, c = Fraction(a), Fraction(b), Fraction(c)
    if a < 0 or b < 0 or a + 2 * b == 0:
        raise ThresholdError("need a, b >= 0 with a + 2b > 0")
    if c <= 0:
        raise ThresholdError("c must be positive")
    xi0 = a / (a + 2 * b)
    work = bits + 16
    total = Interval(0)
    if b > 0:
        total = total + Interval(b) * ln_fraction(2 * b * c / (a + 2 * b), work)
    if a > 0:
        total = total + Interval(a / 2) * ln_fraction(a / (a + 2 * b), work)
    return xi0, total


# ---------------------------------------------------------------------------
# assembled constants for a validated polynomial


class BoundConstants(Frozen):
    __slots__ = ("d_ij", "d_tilde", "delta", "c", "c_f", "rho", "log_rho", "bits")

    def __repr__(self):
        return ("BoundConstants(delta=%s, C_F=%d, rho~%.10g)"
                % (self.delta, self.c_f, float(self.rho)))


def bound_constants(F: MultihomogeneousPolynomial, E: ExceptionalSet,
                    bits: int = 128) -> BoundConstants:
    """Everything the height inequality needs, derived from (F, E) alone."""
    require_valid(F, E)
    d_ij, d_tilde = degree_data(F)
    dlt = delta(F, E)
    c = {}
    for i, j in F.index_pairs():
        if not E.is_exceptional_pair(i, j):
            c[(i, j)] = int(c_value(F, i, j, E))
    cf = c_max(F, E)
    rho_value, log_rho = rho(cf, dlt, bits)
    return BoundConstants(d_ij, d_tilde, dlt, c, cf, rho_value, log_rho, bits)
