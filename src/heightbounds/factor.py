"""Factorization of integer polynomials over the rationals.

Pipeline: content/primitive split, a squarefree test modulo one small
prime (only inputs that fail it go on to Yun's squarefree decomposition
over Z), then for each squarefree part a Zassenhaus round.  At each small
prime the size of the Berlekamp basis counts the factors mod p; the rows
x^(ip) mod f come by shifting.  The prime with the fewest factors is
chosen and f is split there only.  The factors are
Hensel-lifted as ascending residue lists straight to a Mignotte-sized
modulus p^l, through the exponents ceil(l/2^k), and recombined by subset
search, with a polynomial over Z built only for each candidate.
Exponential recombination is fine at the degrees this package targets
(<= ~64; practical inputs stay below ~30).  The last 4096 factorizations
are memoized.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import isqrt

from .polys import IntPolynomial, PolynomialError, poly_gcd

# ---------------------------------------------------------------------------
# dense arithmetic mod p (ascending coefficient lists, normalized)


def _gf_strip(a: list[int]) -> list[int]:
    n = len(a)
    while n and a[n - 1] == 0:
        n -= 1
    del a[n:]
    return a


def gf_from_poly(f: IntPolynomial, p: int) -> list[int]:
    return _gf_strip([c % p for c in f.coeffs])


def gf_to_poly(a: list[int], p: int) -> IntPolynomial:
    """Lift with balanced residues in (-p/2, p/2]."""
    half = p // 2
    return IntPolynomial([c - p if c > half else c for c in a])


def gf_add(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _gf_strip(out)


def gf_sub(a, b, p):
    out = list(a) + [0] * max(0, len(b) - len(a))
    for i, c in enumerate(b):
        out[i] = (out[i] - c) % p
    return _gf_strip(out)


def gf_mul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return _gf_strip([c % p for c in out])


def gf_monic(a, p):
    if not a:
        return []
    inv = pow(a[-1], -1, p)
    return [(c * inv) % p for c in a]


def gf_divmod(a, b, p):
    if not b:
        raise ZeroDivisionError("gf division by zero")
    a = list(a)
    inv = pow(b[-1], -1, p)
    q = [0] * max(0, len(a) - len(b) + 1)
    for i in range(len(a) - len(b), -1, -1):
        c = (a[i + len(b) - 1] * inv) % p
        if c:
            q[i] = c
            for j, cb in enumerate(b):
                a[i + j] = (a[i + j] - c * cb) % p
    return q and _gf_strip(q) or [], _gf_strip(a[: len(b) - 1])


def gf_rem(a, b, p):
    return gf_divmod(a, b, p)[1]


def gf_gcd(a, b, p):
    while b:
        a, b = b, gf_rem(a, b, p)
    return gf_monic(a, p)


def gf_gcdex(a, b, p):
    """Extended gcd: returns (s, t, g) with s*a + t*b = g, g monic."""
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while b:
        q, r = gf_divmod(a, b, p)
        a, b = b, r
        s0, s1 = s1, gf_sub(s0, gf_mul(q, s1, p), p)
        t0, t1 = t1, gf_sub(t0, gf_mul(q, t1, p), p)
    if not a:
        raise ZeroDivisionError("gcdex of zero polynomials")
    inv = pow(a[-1], -1, p)
    scale = lambda u: [(c * inv) % p for c in u]
    return scale(s0), scale(t0), gf_monic(a, p)


def gf_pow_mod(a, n, f, p):
    result = [1]
    a = gf_rem(a, f, p)
    while n:
        if n & 1:
            result = gf_rem(gf_mul(result, a, p), f, p)
        a = gf_rem(gf_mul(a, a, p), f, p)
        n >>= 1
    return result


def gf_deriv(a, p):
    return _gf_strip([(i * c) % p for i, c in enumerate(a)][1:])


def gf_is_squarefree(a, p):
    d = gf_deriv(a, p)
    if not d:
        return False
    return len(gf_gcd(a, d, p)) == 1


# ---------------------------------------------------------------------------
# Berlekamp factorization over GF(p), deterministic


def _berlekamp_matrix(f, p):
    """Rows x^(i*p) mod f (i < n) of monic f of degree n, each a list of n
    residues.  Each row follows from the last by p shifts, a multiply by x
    and one subtraction of f each (p*n^2 operations)."""
    n = len(f) - 1
    rows = []
    low = f[:n]
    row = [1] + [0] * (n - 1)
    for _ in range(n):
        rows.append(row)
        for _ in range(p):
            c = row[-1]
            row = [0] + row[:-1]
            if c:
                row = [(a - c * b) % p for a, b in zip(row, low)]
    return rows


def _nullspace_mod(matrix, p):
    """Basis of the left operand's nullspace for (M - I)^T x = 0 convention.

    `matrix` rows are x^(ip) mod f; we solve v (Q - I) = 0 treating v as a
    coefficient row vector, i.e. the classical Berlekamp subalgebra basis.
    """
    n = len(matrix)
    m = [[(matrix[i][j] - (1 if i == j else 0)) % p for j in range(n)] for i in range(n)]
    # row-reduce m^T so kernel vectors come out as rows
    a = [[m[i][j] for i in range(n)] for j in range(n)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, n):
            if a[r][col]:
                sel = r
                break
        if sel is None:
            continue
        a[row], a[sel] = a[sel], a[row]
        inv = pow(a[row][col], -1, p)
        a[row] = [(c * inv) % p for c in a[row]]
        for r in range(n):
            if r != row and a[r][col]:
                factor = a[r][col]
                a[r] = [(c - factor * d) % p for c, d in zip(a[r], a[row])]
        pivots.append(col)
        row += 1
    basis = []
    free_cols = [c for c in range(n) if c not in pivots]
    for fc in free_cols:
        v = [0] * n
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = (-a[r][fc]) % p
        basis.append(v)
    return basis


def gf_factor_squarefree(f, p, basis) -> list[list[int]]:
    """Monic irreducible factors of a monic squarefree f over GF(p), split
    by `basis`, the Berlekamp subalgebra basis of f; there are len(basis)."""
    r = len(basis)
    factors = [f]
    for v in basis:
        vv = _gf_strip(list(v))
        if len(vv) <= 1:
            continue  # constant vector splits nothing
        next_factors = []
        for g in factors:
            if len(g) - 1 <= 1:
                next_factors.append(g)
                continue
            pieces = []
            rem_g = g
            for s in range(p):
                if len(rem_g) - 1 <= 0:
                    break
                h = gf_gcd(rem_g, gf_sub(vv, [s], p), p)
                if 1 < len(h) <= len(rem_g):
                    if len(h) < len(rem_g):
                        pieces.append(h)
                        rem_g = gf_divmod(rem_g, h, p)[0]
                    elif len(h) == len(rem_g):
                        break
            if len(rem_g) > 1:
                pieces.append(gf_monic(rem_g, p))
            next_factors.extend(pieces if pieces else [g])
        factors = next_factors
        if len(factors) == r:
            break
    return sorted(factors, key=lambda g: (len(g), g))


# ---------------------------------------------------------------------------
# Hensel lifting (quadratic, pairwise split) on residue lists modulo p^k;
# every divisor is monic, so the GF(p) helpers above are valid there


def _hensel_step(M, f, g, h, s, t, last=False):
    """One quadratic lift of f = g*h, s*g + t*h = 1 from mod m to mod M,
    for M dividing m^2 (von zur Gathen & Gerhard, Modern Computer Algebra,
    Alg. 15.10).  The last step of a lift leaves s and t as they are."""
    e = gf_sub([c % M for c in f], gf_mul(g, h, M), M)
    q, r = gf_divmod(gf_mul(s, e, M), h, M)
    G = gf_add(g, gf_add(gf_mul(t, e, M), gf_mul(q, g, M), M), M)
    H = gf_add(h, r, M)
    if last:
        return G, H, s, t
    b = gf_sub(gf_add(gf_mul(s, G, M), gf_mul(t, H, M), M), [1], M)
    c, d = gf_divmod(gf_mul(s, b, M), H, M)
    S = gf_sub(s, d, M)
    T = gf_sub(t, gf_add(gf_mul(t, b, M), gf_mul(c, G, M), M), M)
    return G, H, S, T


def _hensel_lift(p, f, modular_factors, l) -> list[list[int]]:
    """Lift the monic pairwise-coprime factors of f mod p (ascending
    coefficients, lead prime to p) to monic factors mod p^l, through the
    exponents ..., ceil(l/4), ceil(l/2), l, each at most twice the last."""
    pl = p ** l
    k = len(modular_factors) // 2
    if not k:
        return [gf_monic(f, pl)]
    g = [f[-1] % p]
    for mf in modular_factors[:k]:
        g = gf_mul(g, mf, p)
    h = modular_factors[k]
    for mf in modular_factors[k + 1:]:
        h = gf_mul(h, mf, p)
    s, t, one = gf_gcdex(g, h, p)
    if len(one) != 1:
        raise PolynomialError("modular factors not coprime")
    chain = []
    e = l
    while e > 1:
        chain.append(e)
        e = (e + 1) // 2
    for e in reversed(chain):
        g, h, s, t = _hensel_step(p ** e, f, g, h, s, t, last=e == l)
    return (_hensel_lift(p, g, modular_factors[:k], l)
            + _hensel_lift(p, h, modular_factors[k:], l))


# ---------------------------------------------------------------------------
# Zassenhaus over Z


@lru_cache(maxsize=None)
def _odd_primes_below(n: int) -> tuple[int, ...]:
    sieve = bytearray([1]) * n
    for i in range(3, isqrt(n) + 1, 2):
        if sieve[i]:
            sieve[i * i::2 * i] = bytes(len(range(i * i, n, 2 * i)))
    return tuple(i for i in range(3, n, 2) if sieve[i])


def _odd_primes(limit: int = 100000):
    """The odd primes below limit in ascending order, sieved in doubling
    blocks only as far as the caller reads (factoring rarely passes 64)."""
    done, bound = 0, 64
    while True:
        primes = _odd_primes_below(min(bound, limit))
        yield from primes[done:]
        if bound >= limit:
            return
        done, bound = len(primes), 2 * bound


# modular factorizations tried before recombining over the best of them;
# some polynomials split into many factors modulo every prime
_USABLE_PRIMES = 8


def _mignotte_bound(f: IntPolynomial) -> int:
    n = f.degree
    a = max(abs(c) for c in f.coeffs)
    return (isqrt(n + 1) + 1) * (1 << n) * a * abs(f.lead)


def factor_squarefree_primitive(f: IntPolynomial) -> list[IntPolynomial]:
    """Irreducible factors of a primitive squarefree f with positive lead."""
    n = f.degree
    if n <= 1:
        return [f]
    lc = f.lead
    best = None
    usable = 0
    for p in _odd_primes():
        if lc % p == 0:
            continue
        fp = gf_from_poly(f, p)
        if len(fp) - 1 != n or not gf_is_squarefree(fp, p):
            continue
        # the factor count mod p is the Berlekamp basis size; split only at
        # the prime chosen
        fp = gf_monic(fp, p)
        basis = _nullspace_mod(_berlekamp_matrix(fp, p), p)
        usable += 1
        if best is None or len(basis) < len(best[2]):
            best = (p, fp, basis)
        if (len(basis) <= 3 or (len(best[2]) <= 6 and p > 30)
                or usable == _USABLE_PRIMES):
            break
    if best is None:
        raise PolynomialError("no usable prime found")
    p, fp, basis = best
    if len(basis) == 1:
        return [f]
    B = _mignotte_bound(f)
    # smallest l with p^l > 2B (integer arithmetic; B can exceed float range)
    l = max(1, (2 * B + 1).bit_length() // max(1, p.bit_length() - 1))
    while p ** l <= 2 * B:
        l += 1
    lifted = _hensel_lift(p, f.coeffs, gf_factor_squarefree(fp, p, basis), l)
    pl = p ** l

    # subset recombination
    fc = f.constant
    factors: list[IntPolynomial] = []
    rest = f
    b = rest.lead
    indices = list(range(len(lifted)))
    s = 1
    while 2 * s <= len(indices):
        found = False
        for subset in combinations(indices, s):
            # cheap test: constant coefficient of candidate must divide f's
            q = b % pl
            for i in subset:
                q = (q * lifted[i][0]) % pl
            half = pl // 2
            qs = q - pl if q > half else q
            if qs != 0 and fc % qs != 0 and b == 1:
                continue
            G = [b % pl]
            for i in subset:
                G = gf_mul(G, lifted[i], pl)
            G = gf_to_poly(G, pl).primitive_part()
            if G.lead < 0:
                G = -G
            if G.degree >= 1 and G.divides(rest):
                rest = rest.exact_div(G)
                b = rest.lead
                factors.append(G)
                subset_set = set(subset)
                indices = [i for i in indices if i not in subset_set]
                found = True
                break
        if not found:
            s += 1
    if rest.degree >= 1:
        factors.append(rest.canonical())
    return sorted(factors, key=lambda g: (g.degree, g.coeffs))


def squarefree_decomposition(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Yun decomposition of a primitive f: list of (squarefree part, multiplicity).

    f is first reduced modulo the first odd prime p not dividing its lead.
    If f = g^2 h then g keeps its degree mod p, so f squarefree mod p is
    squarefree over Q and skips Yun's gcds over Z."""
    p = next((q for q in _odd_primes() if f.lead % q), None)
    if p is not None and gf_is_squarefree(gf_from_poly(f, p), p):
        return [(f.canonical(), 1)]
    out = []
    g = poly_gcd(f, f.derivative())
    if g.degree == 0:
        return [(f.canonical(), 1)]
    w = f.canonical().exact_div(g)
    mult = 1
    while w.degree >= 1:
        y = poly_gcd(w, g)
        z = w.exact_div(y)
        if z.degree >= 1:
            out.append((z.canonical(), mult))
        w = y
        g = g.exact_div(y)
        mult += 1
        if g.degree == 0 and w.degree >= 1:
            out.append((w.canonical(), mult))
            break
    return out


def factor_over_rationals(f: IntPolynomial) -> list[tuple[IntPolynomial, int]]:
    """Complete factorization into canonical irreducible factors with multiplicity.

    The product of the factors (with multiplicities) equals f up to a
    rational constant.  Factors are sorted by (degree, coefficient tuple).
    Memoized for the last 4096 polynomials; every call returns a fresh
    list.
    """
    return list(_factorization(f))


@lru_cache(maxsize=4096)
def _factorization(f: IntPolynomial) -> tuple[tuple[IntPolynomial, int], ...]:
    if f.is_zero():
        raise PolynomialError("cannot factor the zero polynomial")
    if f.degree == 0:
        return ()
    work = f.canonical()
    out: list[tuple[IntPolynomial, int]] = []
    # pull off powers of x first (frequent in practice, cheap)
    k = 0
    while work.coeffs[0] == 0:
        work = IntPolynomial(work.coeffs[1:])
        k += 1
    if k:
        out.append((IntPolynomial([0, 1]), k))
    if work.degree >= 1:
        for part, mult in squarefree_decomposition(work):
            for irr in factor_squarefree_primitive(part):
                out.append((irr.canonical(), mult))
    return tuple(sorted(out, key=lambda t: (t[0].degree, t[0].coeffs)))


def is_irreducible(f: IntPolynomial) -> bool:
    """True iff f is irreducible over Q (up to constants), degree >= 1."""
    if f.degree < 1:
        return False
    facs = factor_over_rationals(f)
    return len(facs) == 1 and facs[0][1] == 1 and facs[0][0].degree == f.degree
