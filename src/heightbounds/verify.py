"""Hypothesis checks and certified verification of the height inequality on
concrete points, with the sum-equals-N and totally-real-integer entry points.
"""

from __future__ import annotations

import functools
import multiprocessing
from fractions import Fraction

from .algebraic import DEFAULT_DEGREE_CAP, AlgebraicNumber, DegreeCapExceeded, as_algebraic
from .bounds import rho
from .forms import (ExceptionalSet, FormError, MultihomogeneousPolynomial,
                    c_max, delta, reciprocal_transform, require_valid)
from .heights import HeightValue, MultiProjectivePoint, point_log_height
from .intervals import Interval, Rect, _numerators, _rect_mul, _rect_over

EQUALITY_WIDTH = Fraction(1, 1 << 64)
PRECISION_CAP = 4096

HOLDS = "holds"
EQUALITY = "equality-candidate"
VIOLATED = "violated-hypotheses"
UNDECIDED = "undecided-at-precision"


class InstanceError(ValueError):
    """The provided data is not an instance of the sum-equals-N setup."""


class UndecidedError(ArithmeticError):
    """Sign undecidable at the precision/degree caps; never silently guessed."""


class HypothesisResult:
    __slots__ = ("name", "passed", "witness")

    def __init__(self, name, passed, witness=""):
        self.name = name
        self.passed = passed
        self.witness = witness

    def __repr__(self):
        return "HypothesisResult(%s=%s%s)" % (
            self.name, self.passed, ", %s" % self.witness if self.witness else "")


class Verdict:
    __slots__ = ("status", "hypotheses", "lhs", "log_rho", "margin", "precision_bits")

    def __init__(self, status, hypotheses, lhs=None, log_rho=None, margin=None,
                 precision_bits=0):
        self.status = status
        self.hypotheses = hypotheses
        self.lhs = lhs
        self.log_rho = log_rho
        self.margin = margin
        self.precision_bits = precision_bits

    def __repr__(self):
        extra = ""
        if self.margin is not None:
            extra = ", margin~%.6g" % float(self.margin.mid)
        return "Verdict(%s%s)" % (self.status, extra)


class CorollaryInstance:
    """Nonzero algebraic numbers whose exact sum should be the totally real
    algebraic integer N."""

    __slots__ = ("alphas", "n_value")

    def __init__(self, alphas, n_value):
        alphas = tuple(as_algebraic(a) for a in alphas)
        if not alphas:
            raise InstanceError("need at least one alpha")
        for k, a in enumerate(alphas):
            if a.is_zero():
                raise InstanceError("alpha_%d is zero" % k)
        object.__setattr__(self, "alphas", alphas)
        object.__setattr__(self, "n_value", as_algebraic(n_value))

    def __setattr__(self, *a):
        raise AttributeError("CorollaryInstance is immutable")

    def __reduce__(self):
        return (CorollaryInstance, (self.alphas, self.n_value))

    @property
    def r(self) -> int:
        return len(self.alphas)


# ---------------------------------------------------------------------------
# evaluation of F at a point


def _require_shape(F: MultihomogeneousPolynomial, point: MultiProjectivePoint):
    if point.shape != F.shape:
        raise FormError("point shape %r does not match polynomial shape %r"
                        % (point.shape, F.shape))


def evaluate_exact(F: MultihomogeneousPolynomial, point: MultiProjectivePoint,
                   cap: int = DEFAULT_DEGREE_CAP) -> AlgebraicNumber:
    """Exact value of F at the point through algebraic arithmetic.

    The nonzero monomial terms are summed in monomial order.  F vanishes iff
    the sum of all but the last term equals minus the last, so a zero needs
    no composed sum for the final addition.
    """
    _require_shape(F, point)
    terms = []
    for exp, term in sorted(F.monomials.items()):
        for i, row in enumerate(exp):
            for j, m in enumerate(row):
                if m:
                    c = point.blocks[i][j]
                    if c.is_zero():
                        term = AlgebraicNumber.zero()
                        break
                    term = term.mul(c.pow(m), cap)
            if term.is_zero():
                break
        if not term.is_zero():
            terms.append(term)
    head = zero = AlgebraicNumber.zero()
    for term in terms[:-1]:
        head = head.add(term, cap)
    if not terms or head.equals(terms[-1].neg()):
        return zero
    return head.add(terms[-1], cap)


def evaluate_interval(F: MultihomogeneousPolynomial, point: MultiProjectivePoint,
                      bits: int) -> Rect:
    """Certified rectangle around F(point) from boxes of width 2^-bits: the
    64-bit test that opens `_vanishes` and the ladder past the degree cap.

    Runs on integers.  Each coordinate and coefficient box is read once and
    its corners taken as numerators over q, the lcm of all corner
    denominators.  Each monomial multiplies its coefficient by its
    coordinates in order with `Rect.__mul__`'s interval products; every
    monomial has total degree D = sum(F.degrees), so the terms and their sum
    are over q^(D+1), and the result is the rectangle that `Fraction`
    rectangle products give.
    """
    _require_shape(F, point)
    eps = Fraction(1, 1 << bits)
    boxes = {}
    coeffs, products = [], []
    for exp, coeff in F.monomials.items():
        factors = [(i, j) for i, row in enumerate(exp)
                   for j, m in enumerate(row) for _ in range(m)]
        for i, j in factors:
            if (i, j) not in boxes:
                boxes[i, j] = point.blocks[i][j].box(eps)
        coeffs.append(coeff.box(eps))
        products.append(factors)
    q, corners = _numerators([*boxes.values(), *coeffs])
    coords = dict(zip(boxes, corners))
    total = (0, 0, 0, 0)
    for term, factors in zip(corners[len(boxes):], products):
        for ij in factors:
            term = _rect_mul(term, coords[ij])
        total = tuple(x + y for x, y in zip(total, term))
    return _rect_over(total, q ** (sum(F.degrees) + 1))


def evaluate(F: MultihomogeneousPolynomial, point: MultiProjectivePoint,
             cap: int = DEFAULT_DEGREE_CAP):
    """F(point): the exact algebraic value under the degree cap; past it, a
    rectangle that excludes 0 from the interval ladder of 128 ... 4096 bits
    (`_vanishes` has tried 64 already), else the exact value under a doubled
    cap, else UndecidedError.  A zero claim is never made from intervals
    alone."""
    try:
        return evaluate_exact(F, point, cap)
    except DegreeCapExceeded:
        pass
    bits = 128
    while bits <= PRECISION_CAP:
        rect = evaluate_interval(F, point, bits)
        if not rect.contains_zero():
            return rect
        bits *= 2
    try:
        return evaluate_exact(F, point, cap * 2)
    except DegreeCapExceeded:
        raise UndecidedError(
            "value sign undecidable: degree cap exceeded and the interval "
            "keeps containing zero at %d bits" % PRECISION_CAP) from None


def _vanishes(F: MultihomogeneousPolynomial, point: MultiProjectivePoint,
              cap: int) -> bool:
    """Exact test of F(point) = 0: a 64-bit rectangle that excludes 0
    certifies a nonzero value without `evaluate`'s exact arithmetic."""
    if not evaluate_interval(F, point, 64).contains_zero():
        return False
    value = evaluate(F, point, cap)
    return isinstance(value, AlgebraicNumber) and value.is_zero()


def point_inverse(point: MultiProjectivePoint) -> MultiProjectivePoint:
    return MultiProjectivePoint([[c.inv() for c in block] for block in point.blocks])


def check_hypotheses(F: MultihomogeneousPolynomial, E: ExceptionalSet,
                     point: MultiProjectivePoint,
                     cap: int = DEFAULT_DEGREE_CAP) -> list[HypothesisResult]:
    """The three exact gates: F(x) = 0, all coordinates nonzero, F(x^-1) != 0.

    With every coordinate nonzero, F(x^-1) * prod x_ij^(d_ij) is the
    reciprocal transform of F at x itself, so the last gate inverts nothing.
    """
    results = []
    on_zero_set = _vanishes(F, point, cap)
    results.append(HypothesisResult(
        "zero-set", on_zero_set,
        "" if on_zero_set else "F(x) != 0"))

    zero_at = None
    for i, block in enumerate(point.blocks):
        for j, c in enumerate(block):
            if c.is_zero():
                zero_at = (i, j)
                break
        if zero_at:
            break
    results.append(HypothesisResult(
        "coordinates-nonzero", zero_at is None,
        "" if zero_at is None else "coordinate x_%d%d is zero" % zero_at))

    if zero_at is None:
        inv_zero = _vanishes(reciprocal_transform(F), point, cap)
        results.append(HypothesisResult(
            "reciprocal-nonzero", not inv_zero,
            "" if not inv_zero else "F(x^-1) = 0"))
    else:
        results.append(HypothesisResult(
            "reciprocal-nonzero", False, "x^-1 undefined: a coordinate is zero"))
    return results


def verify_theorem(F: MultihomogeneousPolynomial, E: ExceptionalSet,
                   point: MultiProjectivePoint, precision: int = 128,
                   cap: int = DEFAULT_DEGREE_CAP) -> Verdict:
    """Certified margin for sum (n_i+1) log H(x_i) - log rho, refined until
    the sign is decided or the equality threshold is reached."""
    require_valid(F, E)
    hypotheses = check_hypotheses(F, E, point, cap)
    if not all(h.passed for h in hypotheses):
        return Verdict(VIOLATED, hypotheses, precision_bits=precision)
    dlt = delta(F, E)
    cf = c_max(F, E)
    bits = max(precision, 16)
    while True:
        _, log_rho = rho(cf, dlt, bits)
        lhs = point_log_height(point, bits)
        margin = lhs.log_height - log_rho
        if margin.lo > 0:
            return Verdict(HOLDS, hypotheses, lhs, log_rho, margin, bits)
        if margin.hi < 0:
            raise ArithmeticError(
                "certified negative margin %r contradicts the proved bound; "
                "this indicates an implementation defect" % margin)
        if margin.width < EQUALITY_WIDTH:
            return Verdict(EQUALITY, hypotheses, lhs, log_rho, margin, bits)
        bits *= 2
        if bits > PRECISION_CAP:
            return Verdict(UNDECIDED, hypotheses, lhs, log_rho, margin, bits // 2)


# ---------------------------------------------------------------------------
# the sum-equals-N construction


def build_sum_form(n_value: AlgebraicNumber, r: int) -> tuple[MultihomogeneousPolynomial, ExceptionalSet]:
    """Homogeneous version of x_10 + ... + x_r0 - N over (P^1)^r:
    F(x) = sum_i x_i1 prod_{j != i} x_j0  -  N prod_j x_j0, with every block
    exceptional."""
    shape = (1,) * r
    degrees = (1,) * r
    mons = {}
    for i in range(r):
        exp = tuple((0, 1) if k == i else (1, 0) for k in range(r))
        mons[exp] = 1
    all_zero = tuple((1, 0) for _ in range(r))
    mons[all_zero] = n_value.neg()
    F = MultihomogeneousPolynomial(shape, degrees, mons)
    return F, ExceptionalSet(range(r))


def _halve(iv: Interval) -> Interval:
    return Interval(iv.lo / 2, iv.hi / 2)


def verify_corollary(instance: CorollaryInstance, precision: int = 128,
                     cap: int = DEFAULT_DEGREE_CAP) -> Verdict:
    """Validates sum alpha_i = N exactly (the zero-set gate), then certifies
    sum log h(alpha_i) >= (1/2) log((1+sqrt5)/2) through the theorem on the
    point with blocks (1, alpha_i).  All reported quantities are on the
    corollary scale (half the theorem scale)."""
    n_value = instance.n_value
    if not n_value.is_totally_real():
        raise InstanceError("N is not totally real")
    if not n_value.is_algebraic_integer():
        raise InstanceError("N is not an algebraic integer")
    F, E = build_sum_form(n_value, instance.r)
    # internal consistency of the construction
    assert delta(F, E) == 1, "construction should give delta = 1"
    assert c_max(F, E) == 1, "construction should give C_F = 1"
    point = MultiProjectivePoint([(1, a) for a in instance.alphas])
    verdict = verify_theorem(F, E, point, precision, cap)
    # F(x) = sum alpha_i - N, so the zero-set gate is the sum check
    if not verdict.hypotheses[0].passed:
        raise InstanceError("sum of the alphas is not N")
    if verdict.margin is None:
        return verdict
    return Verdict(verdict.status, verdict.hypotheses,
                   HeightValue(_halve(verdict.lhs.log_height), verdict.lhs.bits),
                   _halve(verdict.log_rho), _halve(verdict.margin),
                   verdict.precision_bits)


class SchinzelResult:
    __slots__ = ("applicable", "reasons", "verdict")

    def __init__(self, applicable, reasons, verdict=None):
        self.applicable = applicable
        self.reasons = tuple(reasons)
        self.verdict = verdict

    def __repr__(self):
        if self.applicable:
            return "SchinzelResult(%r)" % self.verdict
        return "SchinzelResult(not applicable: %s)" % "; ".join(self.reasons)


def schinzel_check(alpha: AlgebraicNumber, precision: int = 128,
                   cap: int = DEFAULT_DEGREE_CAP) -> SchinzelResult:
    """log h(alpha) >= (1/2) log((1+sqrt5)/2) for totally real algebraic
    integers outside {0, +-1}; anything else is reported not-applicable."""
    alpha = as_algebraic(alpha)
    reasons = []
    if alpha.is_zero():
        reasons.append("alpha is 0")
    elif alpha.is_rational() and abs(alpha.as_fraction()) == 1:
        reasons.append("alpha is a unit +-1")
    if not alpha.is_totally_real():
        reasons.append("alpha is not totally real")
    if not alpha.is_algebraic_integer():
        reasons.append("alpha is not an algebraic integer")
    if reasons:
        return SchinzelResult(False, reasons)
    verdict = verify_corollary(CorollaryInstance([alpha], alpha), precision, cap)
    return SchinzelResult(True, (), verdict)


# ---------------------------------------------------------------------------
# deterministic batch verification


def verify_corollary_batch(instances, precision: int = 128, jobs: int = 1) -> list[Verdict]:
    """Order-preserving batch verification; results are independent of jobs."""
    instances = list(instances)
    worker = functools.partial(verify_corollary, precision=precision)
    jobs = min(jobs, len(instances))  # a worker per instance at most
    if jobs <= 1:
        return [worker(inst) for inst in instances]
    with multiprocessing.Pool(jobs) as pool:
        return pool.map(worker, instances)
