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
for the finite-difference eigensolver and the engine of the cavity solvers.
One pole-free condition in x = kR serves both cavities, s_in j1(x) - rho
j0(x): the u/v mismatch times j0(x), with rho the exterior u/v at R.  The
confined cavity is its mu_out -> inf limit rho = 1, the condition u = v.

One scanner finds the roots of both: it samples the brackets between
consecutive zeros of j0(x), on each of which the condition has the sign of
the mismatch up to a fixed factor, and bisects every sign change in x, so a
root is resolved however close lam sits to mu_in.  The same bisection
refines the cavity radii in `bag`.

Scalar Bessel values come from the `math` kernels `_j0`/`_j1`; arrays use
their vectorized forms `spherical_j0`/`spherical_j1`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .grid import FOUR_PI, quad  # quad: uncalled, perfbench's QUAD_HOMES

#: bisection stops at this relative bracket width
ROOT_RTOL = 1e-12
#: roots this close to a window endpoint are rejected as spurious
ENDPOINT_GUARD = 1e-9
#: samples per pole-free bracket when hunting for sign changes
BRACKET_SAMPLES = 128
#: `_ball_integral` sums its Taylor series below this x = kR
BALL_SERIES_X = 2.0


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


def j1_zero(k: int) -> float:
    """k-th positive zero of j1, bracketed between consecutive j0 zeros."""
    return _bisect(_j1, k * math.pi + 1e-12, (k + 1) * math.pi - 1e-12)


def dirichlet_ball_eigenvalue(k: int) -> float:
    """k-th Dirichlet-Laplacian eigenvalue of the unit ball in the
    two-profile symmetric sector: squared zeros of j0 and j1, merged."""
    if k < 1:
        raise ValueError("eigenvalue index starts at 1")
    vals = [(i * math.pi) ** 2 for i in range(1, k + 1)]  # j0 zeros i*pi
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


def _x_to_lam(mu_in: float, R: float, x: float) -> float:
    return math.sqrt(mu_in * mu_in + (x / R) ** 2)


def _quantization(R: float, mu_in: float, mu_out: float, x: float) -> float:
    """s_in j1(x) - rho j0(x) at x = kR, with rho = s_out (1 + 1/(kap R))
    the exterior u/v ratio at R (k1/k0 = 1 + 1/y), or 1 for mu_out = inf."""
    lam = _x_to_lam(mu_in, R, x)
    s = math.sqrt((lam - mu_in) / (lam + mu_in)) if lam > abs(mu_in) else 0.0
    rho = 1.0
    if mu_out < math.inf:
        kap = math.sqrt(mu_out * mu_out - lam * lam)
        s_out = math.sqrt((mu_out - lam) / (mu_out + lam))
        rho = s_out * (1.0 + 1.0 / (kap * R))
    return s * _j1(x) - rho * _j0(x)


def matching_function(p: TwoZoneProblem, x: float) -> float:
    """Quantization condition of p at x = kR; its zeros are the eigenvalues.

    x must lie in (0, R sqrt(mu_out^2 - mu_in^2)), the image of the
    bound-state window.
    """
    x_max = p.R * math.sqrt(p.mu_out * p.mu_out - p.mu_in * p.mu_in)
    if not 0.0 < x < x_max:
        raise ValueError(f"x={x} outside the bound-state window (0, {x_max})")
    return _quantization(p.R, p.mu_in, p.mu_out, x)


class Ladder(NamedTuple):
    values: list
    complete: bool      # False when the window holds fewer roots than asked


def _scan_roots(f: Callable[[float], float], count: int, x_lo: float,
                x_hi: float, guard: float) -> list:
    """First `count` roots of f in [x_lo, x_hi], ascending.

    Samples each bracket (j pi + guard, (j+1) pi - guard) at up to
    BRACKET_SAMPLES points, in order, skips non-finite samples, takes an
    exact-zero sample as a root and bisects every sign change to ROOT_RTOL.
    Sampling stops at the sign change that completes `count` roots, so the
    rest of that bracket is never evaluated.  Raises RuntimeError where
    consecutive brackets no longer differ in floating point (x beyond ~1e16).
    """
    roots = []
    # brackets below x_lo are empty (b <= a); one spare absorbs rounding
    branch = max(0, math.floor(x_lo / math.pi) - 1)
    while branch * math.pi < x_hi and len(roots) < count:
        left, right = branch * math.pi + guard, (branch + 1) * math.pi - guard
        if right <= left:
            raise RuntimeError(f"root scan cannot separate the brackets at "
                               f"x = {left:.6g} in floating point")
        a, b = max(left, x_lo), min(right, x_hi)
        branch += 1
        if b <= a:
            continue
        xs = np.linspace(a, b, BRACKET_SAMPLES).tolist()
        x0, f0 = xs[0], f(xs[0])
        for x1 in xs[1:]:
            f1 = f(x1)
            if math.isfinite(f0) and math.isfinite(f1):
                if f0 == 0.0:
                    roots.append(x0)
                elif f0 * f1 < 0.0:
                    roots.append(_bisect(f, x0, x1))
                if len(roots) == count:
                    break
            x0, f0 = x1, f1
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
    xs = _scan_roots(lambda x: matching_function(p, x), count, x_lo, x_hi,
                     ENDPOINT_GUARD)
    roots = [lam for lam in (_x_to_lam(p.mu_in, p.R, x) for x in xs)
             if lam - lo > guard and hi - lam > guard]
    return Ladder(values=roots[:count], complete=len(roots) >= count)


def mit_matching(R: float, m: float, x: float) -> float:
    """Confined-cavity quantization at x = kR, the hard-wall (mu_out = inf)
    condition sqrt((lam-m)/(lam+m)) j1(x) - j0(x): u = v on the boundary."""
    return _quantization(R, m, math.inf, x)


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
    # a budget of k + 65 brackets in x = kR
    roots = _scan_roots(lambda x: mit_matching(R, m, x), k, 0.0,
                        (k + 65) * math.pi, 1e-12)
    if len(roots) < k:
        raise RuntimeError("cavity root search failed to bracket")
    return _x_to_lam(m, R, roots[k - 1])


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
    4 pi int (u^2+v^2) r^2 dr over [0, inf) is elementary in both zones and
    taken in closed form (`two_zone_state`).
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


def _ball_integral(x: float, s2: float) -> float:
    """int_0^x (j0(t)^2 + s2 j1(t)^2) t^2 dt, the interior normalization
    integral over k^-3: x/2 - sin 2x/4 + s2 (x/2 + sin 2x/4 - sin^2 x/x).
    That form cancels for small x (1e-9 relative error at x = 1e-2), so
    below BALL_SERIES_X it is x^3 times the Taylor series sum_(n>=1)
    (-4)^n x^(2n-2) (-1/(2 (2n+1)!) + s2 (n-1)/(2n+2)!), whose 20 terms
    reach past the last one that changes a double.
    """
    if x >= BALL_SERIES_X:
        sin2x, sinx = math.sin(2.0 * x), math.sin(x)
        return (0.5 * x - 0.25 * sin2x
                + s2 * (0.5 * x + 0.25 * sin2x - sinx * sinx / x))
    x2 = x * x
    j0_part = j1_part = 0.0
    a, b = 1.0 / 3.0, x2 / 45.0          # the j0 series from n = 1, j1 from 2
    for n in range(1, 21):
        j0_part, j1_part = j0_part + a, j1_part + b
        a *= -4.0 * x2 / ((2 * n + 2) * (2 * n + 3))
        b *= -4.0 * x2 * (n + 1) / (n * (2 * n + 5) * (2 * n + 6))
    return x**3 * (j0_part + s2 * j1_part)


def two_zone_state(p: TwoZoneProblem, lam: float) -> TwoZoneState:
    """Normalize the bound-state profile at eigenvalue lam.

    lam need not be an exact root; v is matched continuously at R and the
    whole profile normalized, which is what the wall-balance evaluation and
    the hard-wall limit diagnostics require.  Raises RuntimeError where the
    normalization, of order R^3, leaves double range (R below ~1e-103).
    """
    k, kap, s_in, s_out = _wavenumbers(p, lam)
    x, yR = k * p.R, kap * p.R
    v_wall = _j0(x)
    try:
        k3 = k**3
    except OverflowError:       # past double range, where 1/k^3 underflows
        k3 = math.inf
    inner = _ball_integral(x, s_in * s_in) / k3
    # int_yR^inf e^(-2(y-yR)) (1 + s_out^2 (1 + 1/y)^2) dy, y = kap r
    outer = (v_wall * v_wall * p.R * p.R / kap
             * (0.5 + s_out * s_out * (0.5 + 1.0 / yR)))
    norm = math.sqrt(FOUR_PI * (inner + outer))
    if not 0.0 < norm < math.inf:
        raise RuntimeError(f"two-zone state at lam={lam:.6g}, R={p.R:.6g}: "
                           "its normalization leaves double range")
    return TwoZoneState(problem=p, lam=lam, c_in=1.0 / norm,
                        v_wall=v_wall / norm)
