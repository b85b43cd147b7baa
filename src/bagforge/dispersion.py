"""Closed-form eigenvalues for two-zone piecewise-constant scalar masses.

A spinor bound state of mass mu_in on [0, R) and mu_out on [R, inf) has a
spherical-Bessel interior profile and an exponentially decaying exterior,

    interior  v = c * j0(k r),          u = c * s_in * j1(k r),
    exterior  v = d * k0(kap r),        u = d * s_out * k1(kap r),

with k = sqrt(lam^2 - mu_in^2), kap = sqrt(mu_out^2 - lam^2) and amplitude
ratios s_in = sqrt((lam - mu_in)/(lam + mu_in)), s_out =
sqrt((mu_out - lam)/(mu_out + lam)) forced by the first-order radial system

    v'(r) = -(lam + mu) u(r),     u'(r) + 2 u(r)/r = (lam - mu) v(r).

Matching u/v across R quantizes lam.  This module is the independent oracle
for the finite-difference eigensolver and the engine of the cavity solvers;
the hard-wall (mu_out -> inf) limit reduces the matching to the confined
boundary condition u = v at R.

One scanner finds the roots of both the two-zone ladder and the confined
cavity: it samples pole-free brackets between consecutive zeros of j0(kR)
(the poles of the interior ratio) and resolves every sign change by plain
bisection, which cannot be defeated by the poles the way a Newton iteration
can.  The same bisection refines the cavity radii in `bag`.

Scalar Bessel values come from the `math` kernels `_j0`/`_j1`; arrays use
their vectorized forms `spherical_j0`/`spherical_j1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import quad

from .grid import FOUR_PI

#: bisection stops at this relative bracket width
ROOT_RTOL = 1e-12
#: roots this close to a window endpoint are rejected as spurious
ENDPOINT_GUARD = 1e-9
#: samples per pole-free bracket when hunting for sign changes
BRACKET_SAMPLES = 128


def _j0(x: float) -> float:
    """j0(x) = sin x / x, evaluated as np.sinc(x / pi) does."""
    y = math.pi * (x / math.pi)
    if y == 0.0:
        return 1.0
    return math.sin(y) / y


def _j1(x: float) -> float:
    """j1(x) = sin x / x^2 - cos x / x, by its series below |x| = 1e-3."""
    if abs(x) < 1e-3:
        return x / 3.0 - x**3 / 30.0
    # x * x, as numpy squares arrays; the scalar x**2 goes through libm pow,
    # which rounds differently for about one argument in a thousand
    return math.sin(x) / (x * x) - math.cos(x) / x


def _array_form(kernel):
    # math.sin raises at +-inf, where numpy returns NaN
    return np.vectorize(lambda x: kernel(x) if math.isfinite(x) else math.nan,
                        otypes=[float])


spherical_j0 = _array_form(_j0)
spherical_j1 = _array_form(_j1)


def _bisect(f: Callable[[float], float], a: float, b: float,
            rtol: float = ROOT_RTOL, floor: float = 1.0) -> float:
    """Root of f in [a, b] to a bracket of rtol * max(|a|, |b|, floor);
    NaN when f does not change sign on [a, b]."""
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        return math.nan
    while (b - a) > rtol * max(abs(a), abs(b), floor):
        c = 0.5 * (a + b)
        fc = f(c)
        if fc == 0.0:
            return c
        if fa * fc < 0.0:
            b, fb = c, fc
        else:
            a, fa = c, fc
    return 0.5 * (a + b)


def j0_zero(k: int) -> float:
    """k-th positive zero of j0, exactly k*pi."""
    return k * math.pi


def j1_zero(k: int) -> float:
    """k-th positive zero of j1, bracketed between consecutive j0 zeros."""
    return _bisect(_j1, k * math.pi + 1e-12, (k + 1) * math.pi - 1e-12)


def dirichlet_ball_eigenvalue(k: int) -> float:
    """k-th Dirichlet-Laplacian eigenvalue of the unit ball in the
    two-profile symmetric sector: squared zeros of j0 and j1, merged."""
    if k < 1:
        raise ValueError("eigenvalue index starts at 1")
    vals = [j0_zero(i) ** 2 for i in range(1, k + 1)]
    vals += [j1_zero(i) ** 2 for i in range(1, k + 1)]
    return sorted(vals)[k - 1]


@dataclass(frozen=True)
class TwoZoneProblem:
    """Interior mass mu_in on [0, R), exterior mass mu_out on [R, inf).

    Bound states live in the window (|mu_in|, mu_out); mu_in may be negative
    as long as |mu_in| < mu_out.
    """

    mu_in: float
    mu_out: float
    R: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.mu_in, self.mu_out, self.R))):
            raise ValueError(
                f"mu_in, mu_out and R must be finite (got mu_in={self.mu_in}, "
                f"mu_out={self.mu_out}, R={self.R})")
        if not self.R > 0.0:
            raise ValueError(f"R must be positive, got {self.R}")
        if not self.mu_out > abs(self.mu_in):
            raise ValueError(
                f"bound-state window empty: mu_out={self.mu_out} must exceed "
                f"|mu_in|={abs(self.mu_in)}")

    @property
    def window(self) -> tuple:
        return (abs(self.mu_in), self.mu_out)


def _rho_in(p: TwoZoneProblem, lam: float) -> float:
    k = math.sqrt(lam * lam - p.mu_in * p.mu_in)
    x = k * p.R
    j0 = _j0(x)
    if j0 == 0.0:
        return math.inf
    s = math.sqrt((lam - p.mu_in) / (lam + p.mu_in))
    return s * _j1(x) / j0


def _rho_out(p: TwoZoneProblem, lam: float) -> float:
    # k1(x)/k0(x) = 1 + 1/x for the decaying exterior profile
    kap = math.sqrt(p.mu_out * p.mu_out - lam * lam)
    s = math.sqrt((p.mu_out - lam) / (p.mu_out + lam))
    if kap == 0.0:
        return 1.0 / (p.R * (p.mu_out + lam))
    return s * (1.0 + 1.0 / (kap * p.R))


def matching_function(p: TwoZoneProblem, lam: float) -> float:
    """u/v mismatch at R; zeros are eigenvalues.

    Returns a signed infinity marker at the poles of the interior ratio
    (zeros of j0(kR)) so bracketing code can detect them.
    """
    lo, hi = p.window
    if not (lo < lam < hi):
        raise ValueError(f"lam={lam} outside bound-state window ({lo}, {hi})")
    rin = _rho_in(p, lam)
    if math.isinf(rin):
        return math.copysign(math.inf, rin)
    return rin - _rho_out(p, lam)


class Ladder(NamedTuple):
    values: list
    complete: bool      # False when the window holds fewer roots than asked


def _x_to_lam(p: TwoZoneProblem, x: float) -> float:
    return math.sqrt(p.mu_in * p.mu_in + (x / p.R) ** 2)


def _scan_roots(f: Callable[[float], float], count: int, x_lo: float,
                x_hi: float, guard: float) -> list:
    """First `count` roots of f in [x_lo, x_hi], ascending.

    Samples each pole-free bracket (j pi + guard, (j+1) pi - guard) at
    BRACKET_SAMPLES points, skips non-finite samples, takes an exact-zero
    sample as a root and bisects every sign change to ROOT_RTOL.
    """
    roots = []
    # brackets below x_lo are empty (b <= a); one spare absorbs rounding
    branch = max(0, math.floor(x_lo / math.pi) - 1)
    while branch * math.pi < x_hi and len(roots) < count:
        a = max(branch * math.pi + guard, x_lo)
        b = min((branch + 1) * math.pi - guard, x_hi)
        branch += 1
        if b <= a:
            continue
        xs = np.linspace(a, b, BRACKET_SAMPLES)
        vals = np.array([f(x) for x in xs])
        finite = np.isfinite(vals)
        for i in range(len(xs) - 1):
            if not (finite[i] and finite[i + 1]):
                continue
            if vals[i] == 0.0:
                roots.append(xs[i])
            elif vals[i] * vals[i + 1] < 0.0:
                roots.append(_bisect(f, xs[i], xs[i + 1]))
            if len(roots) == count:
                break
    return roots


def eigenvalues(p: TwoZoneProblem, count: int) -> Ladder:
    """First `count` eigenvalues in (|mu_in|, mu_out), ascending.

    Scans x = kR for roots of the matching function and rejects roots
    hugging a window endpoint.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    lo, hi = p.window
    guard = ENDPOINT_GUARD * max(1.0, hi)
    lam_lo, lam_hi = lo + guard, hi - guard
    if lam_lo >= lam_hi:
        return Ladder(values=[], complete=False)
    x_lo = p.R * math.sqrt(lam_lo**2 - p.mu_in**2)
    x_hi = p.R * math.sqrt(lam_hi**2 - p.mu_in**2)
    # looked up at call time, so a wrapped matching_function sees every call
    xs = _scan_roots(lambda x: matching_function(p, _x_to_lam(p, x)), count,
                     x_lo, x_hi, ENDPOINT_GUARD)
    roots = [lam for lam in (_x_to_lam(p, x) for x in xs)
             if lam - lo > guard and hi - lam > guard]
    return Ladder(values=roots[:count], complete=len(roots) >= count)


def mit_matching(R: float, m: float, x: float) -> float:
    """Confined-cavity quantization: sqrt((lam-m)/(lam+m)) j1(x) - j0(x),
    with x = R sqrt(lam^2 - m^2); vanishes where u = v on the boundary."""
    lam = math.sqrt(m * m + (x / R) ** 2)
    s = math.sqrt((lam - m) / (lam + m)) if lam > m else 0.0
    return s * _j1(x) - _j0(x)


def mit_eigenvalue(R: float, m: float, k: int = 1) -> float:
    """k-th eigenvalue (> m) of the confined spherical cavity of radius R.

    The exact mu_out -> inf limit of the two-zone matching; m = 0 is the
    massless cavity.
    """
    if not (math.isfinite(R) and R > 0.0):
        raise ValueError(f"R must be finite and positive, got {R}")
    if not (math.isfinite(m) and m >= 0.0):
        raise ValueError(f"m must be finite and nonnegative, got {m}")
    if k < 1:
        raise ValueError("eigenvalue index starts at 1")
    # a budget of k + 65 pole-free brackets in x = kR
    roots = _scan_roots(lambda x: mit_matching(R, m, x), k, 0.0,
                        (k + 65) * math.pi, 1e-12)
    if len(roots) < k:
        raise RuntimeError("cavity root search failed to bracket")
    x0 = roots[k - 1]
    return math.sqrt(m * m + (x0 / R) ** 2)


def _wavenumbers(p: TwoZoneProblem, lam: float) -> tuple:
    """(k, kap, s_in, s_out): interior and exterior wavenumbers and the
    amplitude ratios u/v of the two zones at eigenvalue lam."""
    k = math.sqrt(lam**2 - p.mu_in**2)
    kap = math.sqrt(p.mu_out**2 - lam**2)
    s_in = math.sqrt((lam - p.mu_in) / (lam + p.mu_in))
    s_out = math.sqrt((p.mu_out - lam) / (p.mu_out + lam))
    return k, kap, s_in, s_out


@dataclass(frozen=True)
class TwoZoneState:
    """Normalized bound state of a two-zone problem.

    Profiles are exact; the exterior is carried relative to the wall value
    v(R) (exponentials shifted by kappa*R), so arbitrarily stiff exterior
    masses neither overflow nor underflow.  The normalization integral
    4 pi int (u^2+v^2) r^2 dr over [0, inf) is computed by adaptive
    quadrature.
    """

    problem: TwoZoneProblem
    lam: float
    c_in: float
    v_wall: float        # v(R), continuous across the wall

    @property
    def _params(self):
        return _wavenumbers(self.problem, self.lam)

    def profiles(self, r):
        """(v, u) at radii r (scalar or array)."""
        r = np.asarray(r, dtype=float)
        k, kap, s_in, s_out = self._params
        R = self.problem.R
        inside = r < R
        rs = np.where(r == 0.0, 1e-300, r)
        x = k * rs
        v_in = self.c_in * spherical_j0(x)
        u_in = self.c_in * s_in * spherical_j1(x)
        y = kap * rs
        yR = kap * R
        decay = np.exp(-np.maximum(y - yR, 0.0))
        # the exterior form is discarded inside R and is 0 where decay
        # underflows (r = inf included); y = 1 there avoids inf/inf
        y = np.where(inside | (decay == 0.0), 1.0, y)
        v_out = self.v_wall * (yR / y) * decay
        u_out = self.v_wall * s_out * (1.0 + y) * yR / y**2 * decay
        return np.where(inside, v_in, v_out), np.where(inside, u_in, u_out)

    def boundary_values(self) -> tuple:
        """(v(R), u(R)) from the interior side (continuous at eigenvalues)."""
        k, _, s_in, _ = self._params
        x = k * self.problem.R
        return self.c_in * _j0(x), self.c_in * s_in * _j1(x)

    def boundary_ratio(self) -> float:
        """u(R)/v(R); tends to 1 as the exterior mass grows without bound."""
        v, u = self.boundary_values()
        return u / v

    def boundary_density(self) -> float:
        """v(R)^2 - u(R)^2, the scalar density entering the wall balance."""
        v, u = self.boundary_values()
        return v * v - u * u

    def ode_residual(self, r) -> float:
        """Max residual of the first-order radial system at interior radii r.

        Uses analytic Bessel derivatives; validates that the implemented
        amplitude ratios are the ones the system itself forces.
        """
        r = np.asarray(r, dtype=float)
        if np.any(r <= 0) or np.any(r >= self.problem.R):
            raise ValueError("sample strictly inside (0, R)")
        p, lam = self.problem, self.lam
        k, _, s_in, _ = self._params
        x = k * r
        j0x, j1x = spherical_j0(x), spherical_j1(x)
        v = self.c_in * j0x
        u = self.c_in * s_in * j1x
        dv = self.c_in * k * (-j1x)                       # j0' = -j1
        du = self.c_in * s_in * k * (j0x - 2.0 * j1x / x)  # j1' = j0 - 2 j1/x
        res1 = dv + (lam + p.mu_in) * u
        res2 = du + 2.0 * u / r - (lam - p.mu_in) * v
        return float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))


def two_zone_state(p: TwoZoneProblem, lam: float) -> TwoZoneState:
    """Normalize the bound-state profile at eigenvalue lam.

    lam need not be an exact root; v is matched continuously at R and the
    whole profile normalized, which is what the wall-balance evaluation and
    the hard-wall limit diagnostics require.
    """
    k, kap, s_in, s_out = _wavenumbers(p, lam)
    yR = kap * p.R
    v_wall = _j0(k * p.R)

    def dens_in(r):
        x = k * r
        return (_j0(x) ** 2 + (s_in * _j1(x)) ** 2) * r * r

    def dens_out(r):
        y = kap * r
        decay = math.exp(-(y - yR))
        v = v_wall * (yR / y) * decay
        u = v_wall * s_out * (1.0 + y) * yR / (y * y) * decay
        return (v * v + u * u) * r * r

    inner, _ = quad(dens_in, 0.0, p.R, epsabs=1e-13, epsrel=1e-11, limit=200)
    outer, _ = quad(dens_out, p.R, p.R + 50.0 / kap,
                    epsabs=1e-13, epsrel=1e-11, limit=200)
    norm = math.sqrt(FOUR_PI * (inner + outer))
    return TwoZoneState(problem=p, lam=lam, c_in=1.0 / norm,
                        v_wall=v_wall / norm)
