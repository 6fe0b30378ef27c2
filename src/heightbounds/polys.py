"""Dense univariate integer polynomials with exact arithmetic.

Coefficients are arbitrary-precision Python ints stored in ascending order
of exponent.  The canonical form used throughout the package is "primitive
with positive leading coefficient"; `canonical()` is idempotent.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Sequence


class PolynomialError(ValueError):
    pass


def _strip(coeffs: Sequence[int]) -> tuple[int, ...]:
    n = len(coeffs)
    while n and coeffs[n - 1] == 0:
        n -= 1
    return tuple(coeffs[:n])


def _horner_int(coeffs: Sequence[int], p: int, q: int) -> int:
    """q^d f(p/q), d = len(coeffs) - 1: Horner over the integers, with no
    gcd per step."""
    acc, qk = 0, 1
    for c in reversed(coeffs):
        acc, qk = acc * p + c * qk, qk * q
    return acc


class IntPolynomial:
    """Immutable dense polynomial over the integers."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        cs = []
        for c in coeffs:
            if type(c) is int:
                pass  # the common case, without the ABC check on Fraction
            elif isinstance(c, Fraction):
                if c.denominator != 1:
                    raise PolynomialError("integer coefficients required, got %s" % c)
                c = c.numerator
            elif not isinstance(c, int):
                raise PolynomialError("integer coefficients required, got %r" % (c,))
            cs.append(c)
        object.__setattr__(self, "coeffs", _strip(cs))

    def __setattr__(self, *a):
        raise AttributeError("IntPolynomial is immutable")

    def __reduce__(self):
        return (IntPolynomial, (list(self.coeffs),))

    # -- basic structure -------------------------------------------------

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def lead(self) -> int:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int:
        return self.coeffs[0] if self.coeffs else 0

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return "IntPolynomial(%r)" % (list(self.coeffs),)

    def __str__(self):
        return poly_to_text(self)

    # -- ring operations --------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial([-c for c in self.coeffs])

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return IntPolynomial(())
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return IntPolynomial(out)

    def scale(self, k: int) -> "IntPolynomial":
        return IntPolynomial([k * c for c in self.coeffs])

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise PolynomialError("negative power")
        result = IntPolynomial([1])
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial([i * c for i, c in enumerate(self.coeffs)][1:])

    # -- evaluation --------------------------------------------------------

    def __call__(self, x):
        """Horner evaluation; exact for int/Fraction arguments."""
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Sign of f(p/q), read from the integer q^d f(p/q)."""
        v = _horner_int(self.coeffs, x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def sign_at_inf(self, positive: bool) -> int:
        """Sign of the polynomial at +inf or -inf."""
        if self.is_zero():
            return 0
        s = (self.lead > 0) - (self.lead < 0)
        if not positive and self.degree % 2 == 1:
            s = -s
        return s

    # -- content / canonical form ------------------------------------------

    def content(self) -> int:
        """Nonnegative gcd of the coefficients; 0 for the zero polynomial."""
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
            if g == 1:
                break
        return g

    def primitive_part(self) -> "IntPolynomial":
        if self.is_zero():
            return self
        g = self.content()
        return IntPolynomial([c // g for c in self.coeffs])

    def canonical(self) -> "IntPolynomial":
        """Primitive with positive leading coefficient; idempotent."""
        p = self.primitive_part()
        if p.lead < 0:
            p = -p
        return p

    def is_monic(self) -> bool:
        return self.lead == 1

    # -- division ------------------------------------------------------------

    def pseudo_divmod(self, g: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial", int]:
        """Pseudo-division: lc(g)^k * self = q*g + r with deg r < deg g.

        Returns (q, r, k) where k = deg(self) - deg(g) + 1 (or 0 when
        deg(self) < deg(g)).
        """
        if g.is_zero():
            raise ZeroDivisionError("pseudo-division by the zero polynomial")
        df, dg = self.degree, g.degree
        if df < dg:
            return IntPolynomial(()), self, 0
        k = df - dg + 1
        lg = g.lead
        rem = list(self.coeffs)
        quo = [0] * (df - dg + 1)
        for i in range(df - dg, -1, -1):
            # multiply the not-yet-processed part by lc(g) each step
            if lg != 1:
                for j in range(dg + i):
                    rem[j] *= lg
                for j in range(len(quo)):
                    quo[j] *= lg
            c = rem[dg + i]
            quo[i] = c
            for j, cg in enumerate(g.coeffs):
                rem[j + i] -= c * cg
            rem[dg + i] = 0
        return IntPolynomial(quo), IntPolynomial(rem), k

    def exact_div(self, g: "IntPolynomial") -> "IntPolynomial":
        """Exact quotient; raises if g does not divide self over Q."""
        q, r, _ = self.pseudo_divmod(g)
        if not r.is_zero():
            raise PolynomialError("not an exact division")
        # pseudo-quotient equals lc(g)^k * true quotient; rescale over Q
        k = self.degree - g.degree + 1 if self.degree >= g.degree else 0
        scale = g.lead ** k
        out = []
        for c in q.coeffs:
            if c % scale:
                num = Fraction(c, scale)
                if num.denominator != 1:
                    raise PolynomialError("quotient not integral")
                out.append(num.numerator)
            else:
                out.append(c // scale)
        return IntPolynomial(out)

    def divides(self, other: "IntPolynomial") -> bool:
        if self.is_zero():
            return other.is_zero()
        try:
            other.exact_div(self)
            return True
        except PolynomialError:
            return False

    # -- transformations ------------------------------------------------------

    def reverse(self) -> "IntPolynomial":
        """Coefficient reversal x^deg * f(1/x); maps roots to inverses."""
        cs = list(self.coeffs)
        i = 0
        while i < len(cs) and cs[i] == 0:
            i += 1
        return IntPolynomial(tuple(reversed(cs[i:])))

    def negate_variable(self) -> "IntPolynomial":
        """f(-x)."""
        return IntPolynomial([(-1) ** i * c for i, c in enumerate(self.coeffs)])

    def shift_rational(self, q: Fraction) -> "IntPolynomial":
        """Integer-cleared f(x - q); roots are shifted by +q."""
        n, d = q.numerator, q.denominator
        m = self.degree
        # sum f_i (d x - n)^i d^(m-i)
        acc = [0] * (m + 1)
        base = IntPolynomial([-n, d])
        pw = IntPolynomial([1])
        for i, c in enumerate(self.coeffs):
            if c:
                term = pw.scale(c * d ** (m - i))
                for j, t in enumerate(term.coeffs):
                    acc[j] += t
            pw = pw * base
        return IntPolynomial(acc)

    def scale_roots(self, q: Fraction) -> "IntPolynomial":
        """Integer-cleared polynomial whose roots are q * (roots of self)."""
        if q == 0:
            raise PolynomialError("zero scale")
        n, d = q.numerator, q.denominator
        m = self.degree
        return IntPolynomial([c * n ** (m - i) * d ** i for i, c in enumerate(self.coeffs)])


# -- gcd / squarefree ------------------------------------------------------


def poly_gcd(f: IntPolynomial, g: IntPolynomial) -> IntPolynomial:
    """Primitive gcd over Q, returned canonical.

    Primitive PRS; adequate at the degrees this package targets (<= ~64).
    """
    if f.is_zero() and g.is_zero():
        raise ZeroDivisionError("gcd of two zero polynomials")
    if f.is_zero():
        return g.canonical()
    if g.is_zero():
        return f.canonical()
    a, b = f.canonical(), g.canonical()
    if a.degree < b.degree:
        a, b = b, a
    while not b.is_zero():
        _, r, _ = a.pseudo_divmod(b)
        a, b = b, r.canonical() if not r.is_zero() else IntPolynomial(())
    return a.canonical()


def squarefree_part(f: IntPolynomial) -> IntPolynomial:
    """Product of the distinct irreducible factors, canonical form."""
    if f.is_zero():
        raise PolynomialError("squarefree part of the zero polynomial")
    if f.degree == 0:
        return IntPolynomial([1])
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return f.canonical()
    return f.canonical().exact_div(g).canonical()


# -- Sturm sequences ---------------------------------------------------------


@lru_cache(maxsize=512)
def sturm_chain(f: IntPolynomial) -> tuple[IntPolynomial, ...]:
    """Sturm chain of a squarefree polynomial (primitive integer chain).

    Each step keeps only the sign-relevant primitive part, with sign fixed
    so that the chain has the Sturm property.  The last element is
    gcd(f, f') up to a constant, so it has degree > 0 exactly when f is not
    squarefree.
    """
    chain = [f.primitive_part()]
    d = f.derivative()
    if d.is_zero():
        return tuple(chain)
    chain.append(d.primitive_part())
    a, b = chain[0], chain[1]
    while True:
        _, r, k = a.pseudo_divmod(b)
        if r.is_zero():
            break
        # pseudo-remainder picked up a factor lc(b)^k; its sign matters
        mult_negative = b.lead < 0 and k % 2 == 1
        nxt = r.primitive_part()
        if not mult_negative:
            nxt = -nxt
        chain.append(nxt)
        a, b = b, nxt
    return tuple(chain)


def _variations(signs: Iterable[int]) -> int:
    v = 0
    prev = 0
    for s in signs:
        if s == 0:
            continue
        if prev and s != prev:
            v += 1
        prev = s
    return v


def count_real_roots(f: IntPolynomial, lo: Fraction | None = None,
                     hi: Fraction | None = None) -> int:
    """Number of distinct real roots of squarefree f in the half-open (lo, hi].

    None endpoints mean -inf / +inf.  Raises on non-squarefree input.
    """
    if f.is_zero():
        raise PolynomialError("zero polynomial")
    if f.degree == 0:
        return 0
    chain = sturm_chain(f)
    if chain[-1].degree > 0:  # the chain ends in gcd(f, f')
        raise PolynomialError("input must be squarefree")
    if lo is None:
        va = _variations(p.sign_at_inf(False) for p in chain)
    else:
        va = _variations(p.sign_at(lo) for p in chain)
    if hi is None:
        vb = _variations(p.sign_at_inf(True) for p in chain)
    else:
        vb = _variations(p.sign_at(hi) for p in chain)
    return va - vb


def root_bound(f: IntPolynomial) -> Fraction:
    """Cauchy bound: all complex roots have modulus < the returned value."""
    if f.degree < 1:
        raise PolynomialError("root bound needs degree >= 1")
    lead = abs(f.lead)
    m = max(abs(c) for c in f.coeffs[:-1]) if f.degree else 0
    return 1 + Fraction(m, lead)


# -- cyclotomic recognition ---------------------------------------------------


def euler_phi(n: int) -> int:
    result = n
    p = 2
    m = n
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> IntPolynomial:
    if n < 1:
        raise PolynomialError("conductor must be positive")
    f = IntPolynomial([-1] + [0] * (n - 1) + [1])
    for d in range(1, n):
        if n % d == 0:
            f = f.exact_div(cyclotomic_polynomial(d))
    return f


def is_cyclotomic(f: IntPolynomial) -> bool:
    """True iff f is Phi_n for some n (i.e. its roots are primitive roots of unity)."""
    d = f.degree
    if d < 1 or not f.is_monic():
        return False
    # phi(n) >= sqrt(n/2), so phi(n) = d forces n <= 2*d^2 (+ slack for tiny d)
    limit = max(6, 2 * d * d + 1)
    for n in range(1, limit + 1):
        if euler_phi(n) == d and f == cyclotomic_polynomial(n):
            return True
    return False


# -- text form ----------------------------------------------------------------

_TERM_RE = re.compile(
    r"""\s*(?P<sign>[+-]?)\s*
        (?:
            (?P<coeff>\d+)\s*(?:\*\s*)?(?P<var1>x)(?:\s*\^\s*(?P<exp1>\d+))?
          | (?P<var2>x)(?:\s*\^\s*(?P<exp2>\d+))?
          | (?P<const>\d+)
        )\s*""",
    re.VERBOSE,
)


def parse_polynomial(text: str) -> IntPolynomial:
    """Parse `c`, `c*x^k`, `x^k`, `x` terms joined by +/-, or a `[c0,...,cd]` list."""
    s = text.strip()
    if not s:
        raise PolynomialError("empty polynomial text")
    if s.startswith("["):
        if not s.endswith("]"):
            raise PolynomialError("unterminated coefficient list")
        body = s[1:-1].strip()
        if not body:
            raise PolynomialError("empty coefficient list")
        try:
            return IntPolynomial([int(p.strip()) for p in body.split(",")])
        except ValueError as e:
            raise PolynomialError("bad coefficient list: %s" % e) from None
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM_RE.match(s, pos)
        if not m or m.start() != pos:
            raise PolynomialError("cannot parse polynomial near %r" % s[pos:pos + 12])
        sign = -1 if m.group("sign") == "-" else 1
        if not first and not m.group("sign"):
            raise PolynomialError("missing +/- separator near %r" % s[pos:pos + 12])
        if m.group("const") is not None:
            exp, coeff = 0, int(m.group("const"))
        elif m.group("var2") is not None:
            exp = int(m.group("exp2")) if m.group("exp2") else 1
            coeff = 1
        else:
            exp = int(m.group("exp1")) if m.group("exp1") else 1
            coeff = int(m.group("coeff"))
        coeffs[exp] = coeffs.get(exp, 0) + sign * coeff
        pos = m.end()
        first = False
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPolynomial(out)


def poly_to_text(f: IntPolynomial) -> str:
    if f.is_zero():
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if not c:
            continue
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if e == 0:
            body = str(mag)
        elif e == 1:
            body = "x" if mag == 1 else "%d*x" % mag
        else:
            body = "x^%d" % e if mag == 1 else "%d*x^%d" % (mag, e)
        parts.append((sign, body))
    head_sign, head = parts[0]
    text = ("-" if head_sign == "-" else "") + head
    for sign, body in parts[1:]:
        text += " %s %s" % (sign, body)
    return text
