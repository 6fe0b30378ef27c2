"""Numeric (uncertified) spot check of the polydisk maximization that drives
the lambda lower bound.

For products of P^1 blocks, the objective
    Phi(x) = sum a_ij log|x_ij| + b log|Ftilde(x)|
is maximized over the zero set of F inside the unit polydisk by random
restarts plus coordinatewise phase/modulus descent.  Working precision is
ordinary float; results are reports, never certificates.
"""

from __future__ import annotations

import math
import random

from .forms import (ExceptionalSet, MultihomogeneousPolynomial,
                    WeightScheme, reciprocal_transform)
from .frozen import Frozen


class SpotcheckError(ValueError):
    pass


class SpotcheckReport(Frozen):
    """best_phi: the best objective value found (float);
    best_moduli: the sorted coordinate moduli at the best point;
    structure_ok: all but at most one modulus within 1e-6 of 1;
    reference: the comparison value (e.g. -log rho), float;
    consistent: best_phi <= reference + 1e-4."""

    __slots__ = ("best_phi", "best_moduli", "structure_ok", "feasible",
                 "reference", "consistent", "trials")

    def __repr__(self):
        if not self.feasible:
            return "SpotcheckReport(no feasible point)"
        return ("SpotcheckReport(best_phi=%.6f, reference=%.6f, consistent=%s, "
                "structure_ok=%s)" % (self.best_phi, self.reference,
                                      self.consistent, self.structure_ok))


def _monomial_value(exp, coords) -> complex:
    v = 1 + 0j
    for i, row in enumerate(exp):
        for j, m in enumerate(row):
            if m:
                v *= coords[i][j] ** m
    return v


def _eval_form(F: MultihomogeneousPolynomial, coeffs, coords) -> complex:
    return sum(c * _monomial_value(exp, coords) for exp, c in zip(F.monomials, coeffs))


def _block_poly(F, coeffs, coords, k, dk):
    """Coefficients of F restricted to block k (polynomial in z = x_k0/x_k1)."""
    out = [0j] * (dk + 1)
    for (exp, c) in zip(F.monomials, coeffs):
        rest = 1 + 0j
        for i, row in enumerate(exp):
            if i == k:
                continue
            for j, m in enumerate(row):
                if m:
                    rest *= coords[i][j] ** m
        out[exp[k][0]] += c * rest
    return out


def _phi(scheme, F_t, coeffs_t, coords, b) -> float:
    total = 0.0
    for (i, j), a in scheme.a.items():
        m = abs(coords[i][j])
        if m == 0.0:
            return -math.inf
        total += float(a) * math.log(m)
    if b:
        ft = _eval_form(F_t, coeffs_t, coords)
        m = abs(ft)
        if m == 0.0:
            return -math.inf
        total += float(b) * math.log(m)
    return total


def polydisk_spotcheck(F: MultihomogeneousPolynomial, E: ExceptionalSet,
                       scheme: WeightScheme, trials: int = 50,
                       reference: float | None = None, seed: int = 0) -> SpotcheckReport:
    """Search the polydisk slice of the zero set for the largest Phi.

    One block at a time is solved exactly (its binary form's roots), the
    others carry unit-modulus coordinates, matching the structure the
    maximizer is known to have.  Purely numeric; reported, not asserted.
    """
    if trials < 1:
        raise SpotcheckError("trials must be >= 1")
    if any(n != 1 for n in F.shape):
        raise SpotcheckError("spot check supports products of P^1 blocks only")
    rng = random.Random(seed)
    r = F.r
    coeffs = [complex(c) for c in F.monomials.values()]
    F_t = reciprocal_transform(F)
    coeffs_t = [complex(c) for c in F_t.monomials.values()]
    b = scheme.b

    best_phi = -math.inf
    best_coords = None

    def candidates(k, coords):
        """Solve block k on the zero set given the other blocks; yield scaled points."""
        dk = F.degrees[k]
        poly = _block_poly(F, coeffs, coords, k, dk)
        if all(abs(c) <= 1e-8 for c in poly):
            return
        # poly[t] multiplies x_k0^t x_k1^(d-t); roots in z = x_k0/x_k1.
        # Leading zeros lower the degree; trailing zeros are roots z = 0,
        # whose blocks have a zero coordinate and never improve Phi.
        lo = next(t for t, c in enumerate(poly) if c != 0)
        hi = max(t for t, c in enumerate(poly) if c != 0)
        if hi == lo:
            return
        import mpmath

        try:
            roots = mpmath.polyroots(poly[hi:lo - 1 if lo else None:-1], maxsteps=100)
        except mpmath.libmp.NoConvergence:
            return  # skipped, like a degenerate block
        for z in map(complex, roots):
            scale = max(abs(z), 1.0)
            block = (z / scale, 1.0 / scale)
            new = [list(c) for c in coords]
            new[k] = list(block)
            yield new

    def local_improve(coords, k_solved):
        cur = _phi(scheme, F_t, coeffs_t, coords, b)
        step = 0.35
        for _ in range(40):
            improved = False
            for i in range(r):
                if i == k_solved:
                    continue
                for j in (0, 1):
                    z = coords[i][j]
                    for mult in (complex(math.cos(step), math.sin(step)),
                                 complex(math.cos(step), -math.sin(step))):
                        trial = [list(c) for c in coords]
                        trial[i][j] = z * mult
                        best_here = None
                        for cand in candidates(k_solved, trial):
                            v = _phi(scheme, F_t, coeffs_t, cand, b)
                            if best_here is None or v > best_here[0]:
                                best_here = (v, cand)
                        if best_here and best_here[0] > cur:
                            cur, coords = best_here
                            improved = True
            if not improved:
                step *= 0.5
                if step < 1e-4:
                    break
        return cur, coords

    for trial in range(trials):
        k = trial % r
        coords = []
        for i in range(r):
            phases = (rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi))
            coords.append([complex(math.cos(p), math.sin(p)) for p in phases])
        seed_best = None
        for cand in candidates(k, coords):
            v = _phi(scheme, F_t, coeffs_t, cand, b)
            if seed_best is None or v > seed_best[0]:
                seed_best = (v, cand)
        if seed_best is None or seed_best[0] == -math.inf:
            continue
        v, coords = local_improve(seed_best[1], k)
        if v > best_phi:
            best_phi = v
            best_coords = coords

    if best_coords is None:
        return SpotcheckReport(-math.inf, (), False, False,
                               reference if reference is not None else math.nan,
                               False, trials)
    moduli = sorted(abs(z) for block in best_coords for z in block)
    off_unit = sum(1 for m in moduli if abs(m - 1.0) > 1e-6)
    structure_ok = off_unit <= 1
    ref = reference if reference is not None else math.nan
    consistent = (best_phi <= ref + 1e-4) if reference is not None else True
    return SpotcheckReport(best_phi, tuple(moduli), structure_ok, True,
                           ref, consistent, trials)
