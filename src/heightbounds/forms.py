"""Multihomogeneous polynomials over products of projective spaces, their
exceptional index sets, and the combinatorial data the height bound needs:
partial degrees, reciprocal multidegrees, the exponent delta, coefficient
masses c(i,j) and their maximum, and the nonnegative weight scheme.
"""

from __future__ import annotations

from fractions import Fraction

from .algebraic import AlgebraicNumber, as_algebraic
from .frozen import Frozen


class FormError(ValueError):
    pass


class InfeasibleWeight(ValueError):
    pass


def _norm_coeff(c) -> AlgebraicNumber:
    if not isinstance(c, (int, Fraction, AlgebraicNumber)):
        raise FormError("unsupported coefficient %r" % (c,))
    return as_algebraic(c)


class MultihomogeneousPolynomial(Frozen):
    """Sparse exponent-matrix representation.

    blocks are indexed 0..r-1; block i has coordinates x_{i,0..n_i}.  Every
    monomial exponent matrix m satisfies m[i][j] >= 0 and
    sum_j m[i][j] == degrees[i].  Every coefficient is stored as a nonzero
    AlgebraicNumber.
    """

    __slots__ = ("shape", "degrees", "monomials")

    def __init__(self, shape, degrees, monomials):
        shape = tuple(int(n) for n in shape)
        degrees = tuple(int(d) for d in degrees)
        if len(shape) != len(degrees):
            raise FormError("shape and degrees length mismatch")
        if any(n < 1 for n in shape):
            raise FormError("every block dimension n_i must be >= 1")
        if any(d < 0 for d in degrees):
            raise FormError("negative multidegree")
        norm = {}
        for exp, coeff in (monomials.items() if isinstance(monomials, dict) else monomials):
            exp = tuple(tuple(int(e) for e in row) for row in exp)
            if len(exp) != len(shape):
                raise FormError("monomial %r has %d blocks, expected %d"
                                % (exp, len(exp), len(shape)))
            for i, row in enumerate(exp):
                if len(row) != shape[i] + 1:
                    raise FormError("monomial %r block %d has length %d, expected %d"
                                    % (exp, i, len(row), shape[i] + 1))
                if any(e < 0 for e in row):
                    raise FormError("negative exponent in %r" % (exp,))
                if sum(row) != degrees[i]:
                    raise FormError("monomial %r block %d exponents sum to %d, "
                                    "declared degree is %d"
                                    % (exp, i, sum(row), degrees[i]))
            coeff = _norm_coeff(coeff)
            if exp in norm:
                raise FormError("duplicate monomial %r" % (exp,))
            if coeff.is_zero():
                continue
            norm[exp] = coeff
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "degrees", degrees)
        object.__setattr__(self, "monomials", norm)

    @property
    def r(self) -> int:
        return len(self.shape)

    def __repr__(self):
        return ("MultihomogeneousPolynomial(shape=%r, degrees=%r, %d monomials)"
                % (self.shape, self.degrees, len(self.monomials)))

    def index_pairs(self):
        for i, n in enumerate(self.shape):
            for j in range(n + 1):
                yield (i, j)


class ExceptionalSet(Frozen):
    """Block indices I (each with n_i = 1); the pairs E = {(i, 0) : i in I}."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", frozenset(int(i) for i in blocks))

    def pairs(self) -> frozenset:
        return frozenset((i, 0) for i in self.blocks)

    def is_exceptional_pair(self, i: int, j: int) -> bool:
        return j == 0 and i in self.blocks

    def __repr__(self):
        return "ExceptionalSet(%s)" % sorted(self.blocks)


class ValidationReport(Frozen):
    __slots__ = ("ok", "issues")

    def __init__(self, issues):
        object.__setattr__(self, "issues", tuple(issues))
        object.__setattr__(self, "ok", not issues)

    def __repr__(self):
        return "ValidationReport(ok=%r, issues=%r)" % (self.ok, list(self.issues))


def is_regular_monomial(F: MultihomogeneousPolynomial, E: ExceptionalSet, exp) -> bool:
    """A monomial is regular when some regular index pair occurs in it."""
    for i, row in enumerate(exp):
        for j, e in enumerate(row):
            if e > 0 and not E.is_exceptional_pair(i, j):
                return True
    return False


def validate(F: MultihomogeneousPolynomial, E: ExceptionalSet) -> ValidationReport:
    """Exceptional-set legality plus the two coefficient properties:
    (i) all coefficients are totally real algebraic integers,
    (ii) regular monomials have integer coefficients."""
    issues = []
    for i in E.blocks:
        if i < 0 or i >= F.r:
            issues.append("exceptional block %d out of range" % i)
        elif F.shape[i] != 1:
            issues.append("exceptional block %d has n_i = %d != 1" % (i, F.shape[i]))
    for exp, coeff in sorted(F.monomials.items()):
        if coeff.is_integer():
            continue
        if not coeff.is_totally_real():
            issues.append("coefficient of %r is not totally real" % (exp,))
        if not coeff.is_algebraic_integer():
            issues.append("coefficient of %r is not an algebraic integer" % (exp,))
        if coeff.is_rational():
            continue
        if is_regular_monomial(F, E, exp):
            issues.append("regular monomial %r has non-integer coefficient" % (exp,))
    return ValidationReport(issues)


def require_valid(F: MultihomogeneousPolynomial, E: ExceptionalSet):
    rep = validate(F, E)
    if not rep.ok:
        raise FormError("invalid polynomial/exceptional set: %s" % "; ".join(rep.issues))


def degree_data(F: MultihomogeneousPolynomial):
    """(d_ij, d_tilde): per-variable max exponents and the reciprocal
    multidegrees d_tilde_i = -d_i + sum_j d_ij."""
    d_ij = []
    for i, n in enumerate(F.shape):
        row = []
        for j in range(n + 1):
            row.append(max((exp[i][j] for exp in F.monomials), default=0))
        d_ij.append(tuple(row))
    d_tilde = tuple(-F.degrees[i] + sum(d_ij[i]) for i in range(F.r))
    return tuple(d_ij), d_tilde


def delta(F: MultihomogeneousPolynomial, E: ExceptionalSet) -> Fraction:
    """The exponent in the threshold equation, a max over blocks."""
    d_ij, d_tilde = degree_data(F)
    best = None
    for i in range(F.r):
        ni1 = F.shape[i] + 1
        if i in E.blocks:
            cand = Fraction(d_tilde[i] + d_ij[i][1], ni1)
        else:
            cand = Fraction(d_tilde[i], ni1)
        if best is None or cand > best:
            best = cand
    if best is None:
        raise FormError("polynomial with no blocks")
    return best


def c_value(F: MultihomogeneousPolynomial, i: int, j: int, E: ExceptionalSet):
    """Coefficient mass of dF/dx_ij: sum of m_ij * |s_m| over monomials with
    m_ij > 0.  At an exceptional pair this is place-independent only when the
    contributing coefficients are rational; otherwise it is refused."""
    if not (0 <= i < F.r and 0 <= j <= F.shape[i]):
        raise FormError("index pair (%d, %d) out of range" % (i, j))
    total = Fraction(0)
    for exp, coeff in F.monomials.items():
        m = exp[i][j]
        if m <= 0:
            continue
        if not coeff.is_rational():
            if E.is_exceptional_pair(i, j):
                raise FormError(
                    "c value at pair (%d, %d) depends on the place: monomial "
                    "%r has an irrational coefficient" % (i, j, exp))
            raise FormError(
                "regular pair (%d, %d) touches a non-integer coefficient; "
                "polynomial violates property (ii)" % (i, j))
        total += m * abs(coeff.as_fraction())
    return int(total) if total.denominator == 1 else total


def c_max(F: MultihomogeneousPolynomial, E: ExceptionalSet) -> int:
    """C_F: the maximum of c(i, j) over regular index pairs."""
    best = None
    for i, j in F.index_pairs():
        if E.is_exceptional_pair(i, j):
            continue
        v = c_value(F, i, j, E)
        if best is None or v > best:
            best = v
    if best is None:
        raise FormError("no regular index pairs; C_F undefined")
    return int(best)


def reciprocal_transform(F: MultihomogeneousPolynomial) -> MultihomogeneousPolynomial:
    """The polynomial F(x^-1) * prod x_ij^(d_ij): exponents are complemented
    against d_ij; multidegrees become d_tilde."""
    d_ij, d_tilde = degree_data(F)
    mons = {}
    for exp, coeff in F.monomials.items():
        new = tuple(tuple(d_ij[i][j] - exp[i][j] for j in range(len(exp[i])))
                    for i in range(F.r))
        mons[new] = coeff
    return MultihomogeneousPolynomial(F.shape, d_tilde, mons)


class WeightScheme(Frozen):
    """Nonnegative weights a_ij (coordinates) and b (the reciprocal transform)
    satisfying n_i + 1 = sum_j a_ij + b * d_tilde_i for every block."""

    __slots__ = ("b", "a", "block_weights")

    def __init__(self, b: Fraction, a: dict, block_weights: tuple):
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", dict(a))
        object.__setattr__(self, "block_weights", tuple(block_weights))

    def __repr__(self):
        return "WeightScheme(b=%s, a=%r)" % (self.b, self.a)


def weight_scheme(F: MultihomogeneousPolynomial, E: ExceptionalSet, b) -> WeightScheme:
    """Exact rational weights for a given b; raises when any a_ij < 0.

    In an exceptional block the two coordinates split the reciprocal degree
    asymmetrically: the exceptional coordinate (j = 0) carries
    (d_tilde - d_i1) and the regular one (j = 1) carries (d_tilde + d_i1),
    which is exactly what makes every effective weight at least 1 - delta*b.
    """
    b = Fraction(b)
    if b < 0:
        raise InfeasibleWeight("b must be nonnegative")
    d_ij, d_tilde = degree_data(F)
    a = {}
    for i in range(F.r):
        ni1 = F.shape[i] + 1
        for j in range(F.shape[i] + 1):
            if i in E.blocks:
                num = d_tilde[i] + (-1) ** (j + 1) * d_ij[i][1]
            else:
                num = d_tilde[i]
            aij = 1 - Fraction(num, ni1) * b
            if aij < 0:
                raise InfeasibleWeight(
                    "a[%d,%d] = %s < 0 at b = %s" % (i, j, aij, b))
            a[(i, j)] = aij
    weights = []
    for i in range(F.r):
        w = sum(a[(i, j)] for j in range(F.shape[i] + 1)) + b * d_tilde[i]
        if w != F.shape[i] + 1:
            raise ArithmeticError("weight identity failed at block %d" % i)
        weights.append(w)
    return WeightScheme(b, a, weights)
