"""Spherical cavity solvers: sharp bag, confined cavity, hard-wall limit.

The sharp-interface (bag) energy of N quarks on ladder level k in a ball of
radius R, with surface tension a and volume (bag) constant b, is

    E(R) = N * lam_k(mu_in, mu_out; R) + a * 4 pi R^2 + b * (4/3) pi R^3,

where lam_k comes from the closed-form two-zone matching (interior mass
mu_in = m - g, exterior mass mu_out = m) and levels missing from the
bound-state window contribute the exterior band edge.  The stationarity
condition in R is the wall balance

    2 a / R + b - N g (v(R)^2 - u(R)^2) = 0,

(mean curvature of a sphere is 2/R), so the 1D optimizer refines a golden
bracket by bisecting the sign of the analytic radial derivative, and the
residual of the wall balance doubles as the optimality certificate.

The confined cavity (hard wall) appears twice: directly through its exact
eigenvalue, and as the limit of two-zone problems with interior mass m and
exterior masses M_n growing without bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from .dispersion import (TwoZoneProblem, _bisect, eigenvalues, mit_eigenvalue,
                         two_zone_state)

#: relative radius tolerance of the derivative bisection
RADIUS_RTOL = 1e-10
#: optimum closer than this (relative) to an interval end is flagged
BOUNDARY_GUARD = 1e-3


@dataclass(frozen=True)
class BagConfig:
    """Sharp-bag model parameters; requires 0 < g < m so the two-zone
    operator keeps a spectral gap, and a positive geometric penalty."""

    n_quarks: int
    g: float
    m: float
    a: float
    b: float
    k: int = 1
    r_interval: Tuple[float, float] = (0.0, 0.0)   # (0,0) -> default

    def __post_init__(self):
        if self.n_quarks < 1:
            raise ValueError("need at least one quark")
        if not all(map(math.isfinite, (self.g, self.m, self.a, self.b))):
            raise ValueError(
                f"g, m, a and b must be finite (got g={self.g}, m={self.m}, "
                f"a={self.a}, b={self.b})")
        if not self.m > 0.0:
            raise ValueError("mass m must be positive")
        if not (0.0 < self.g < self.m):
            raise ValueError(
                f"bag model requires 0 < g < m (got g={self.g}, m={self.m}); "
                "the coupling must not close the mass gap")
        if self.m - self.g == self.m:
            raise ValueError(f"coupling g={self.g!r} is below the resolution "
                             f"of m={self.m!r}: m - g rounds to m")
        if self.a < 0.0 or self.b < 0.0 or max(self.a, self.b) <= 0.0:
            raise ValueError("need a, b >= 0 with max(a, b) > 0")
        if self.k < 1:
            raise ValueError("ladder index starts at 1")
        if self.r_interval == (0.0, 0.0):
            if not math.isfinite(1e2 / self.m):
                raise ValueError(
                    f"mass m={self.m!r} is too small: its default radius "
                    "interval (0.01/m, 100/m) is not finite")
            object.__setattr__(self, "r_interval",
                               (1e-2 / self.m, 1e2 / self.m))
        lo, hi = self.r_interval
        if not (0.0 < lo < hi < math.inf):
            raise ValueError("radius interval must be finite with "
                             f"0 < lo < hi, got {self.r_interval}")


@dataclass
class BagReport:
    config: BagConfig
    R: float
    mu_in: float
    mu_out: float
    lam: float                   # occupied level (band edge if missing)
    energy: float
    boundary_ratio: float        # u(R)/v(R), NaN when the level is missing
    curvature_residual: float
    flagged: bool                # boundary optimum: widen the interval


def _level(mu_in: float, mu_out: float, R: float, k: int):
    """k-th two-zone level at radius R, band-edge padded: (lam,
    problem|None); the problem is None when the level is missing, so only
    callers that need the normalized state build it."""
    p = TwoZoneProblem(mu_in=mu_in, mu_out=mu_out, R=R)
    lams = eigenvalues(p, k)
    if len(lams) == k:
        return lams[k - 1], p
    return mu_out, None


def _total(n_quarks: int, lam: float, a: float, b: float, R: float) -> float:
    """N lam + a * 4 pi R^2 + b * (4/3) pi R^3."""
    return (n_quarks * lam + a * 4.0 * math.pi * R**2
            + b * (4.0 / 3.0) * math.pi * R**3)


def cavity_energy(n_quarks: int, mu_in: float, mu_out: float, a: float,
                  b: float, k: int, R: float) -> float:
    """Sharp-cavity energy at radius R for a general two-zone mass pair;
    its `TwoZoneProblem` refuses an R that is not finite and positive."""
    lam, _ = _level(mu_in, mu_out, R, k)
    return _total(n_quarks, lam, a, b, R)


def cavity_energy_derivative(n_quarks: int, mu_in: float, mu_out: float,
                             a: float, b: float, k: int, R: float) -> float:
    """Analytic dE/dR.

    Moving the wall outward swaps exterior for interior mass in a thin
    shell, so first-order perturbation gives
    d lam/dR = (mu_in - mu_out) * 4 pi R^2 * (v(R)^2 - u(R)^2); a missing
    level sits at the band edge and does not respond to R.
    """
    lam, p = _level(mu_in, mu_out, R, k)
    geom = 8.0 * math.pi * a * R + 4.0 * math.pi * b * R**2
    if p is None:
        return geom
    rho = two_zone_state(p, lam).boundary_density()
    return n_quarks * (mu_in - mu_out) * 4.0 * math.pi * R**2 * rho + geom


def bag_energy(cfg: BagConfig, R: float) -> float:
    """Bag energy at radius R (interior mass m - g, exterior mass m)."""
    return cavity_energy(cfg.n_quarks, cfg.m - cfg.g, cfg.m, cfg.a, cfg.b,
                         cfg.k, R)


def _golden(f, lo: float, hi: float, iters: int) -> float:
    """Golden-section minimum of f on [lo, hi] in the log coordinate."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = math.log(lo), math.log(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(math.exp(c)), f(math.exp(d))
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(math.exp(c))
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(math.exp(d))
    return math.exp(0.5 * (a + b))


def _optimize_radius(f, df, lo: float, hi: float, iters: int):
    """Golden search of f on [lo, hi], refined by bisecting df within 20% of
    the golden point: (R, refined).  Where df keeps one sign there, refined
    is False and R is the golden point."""
    R0 = _golden(f, lo, hi, iters)
    R = _bisect(df, max(lo, 0.8 * R0), min(hi, 1.2 * R0), RADIUS_RTOL,
                floor=0.0)
    return (R0, False) if math.isnan(R) else (R, True)


def _minimize_cavity(cfg: BagConfig, mu_in: float, mu_out: float,
                     weight: float) -> BagReport:
    """Optimal radius of N quarks on level k of cfg between the two zone
    masses.  The wall-balance residual weighs the boundary density by
    `weight`, the mass jump mu_out - mu_in as the caller computes it; cfg
    supplies N, a, b, k and the radius interval, never g or m."""
    n_quarks, a, b, k = cfg.n_quarks, cfg.a, cfg.b, cfg.k
    lo, hi = cfg.r_interval
    f = lambda R: cavity_energy(n_quarks, mu_in, mu_out, a, b, k, R)
    df = lambda R: cavity_energy_derivative(n_quarks, mu_in, mu_out, a, b, k, R)
    R, refined = _optimize_radius(f, df, lo, hi, iters=60)
    # an unrefined golden point runs into an interval end (collapse or
    # escape); so does an optimum hugging one
    rel_lo = (R - lo) / (hi - lo)
    rel_hi = (hi - R) / (hi - lo)
    flagged = not refined or min(rel_lo, rel_hi) < BOUNDARY_GUARD
    lam, p = _level(mu_in, mu_out, R, k)
    energy = _total(n_quarks, lam, a, b, R)
    if p is None:
        ratio, resid = math.nan, abs(2.0 * a / R + b)
    else:
        state = two_zone_state(p, lam)
        ratio = state.boundary_ratio()
        resid = abs(2.0 * a / R + b
                    - n_quarks * weight * state.boundary_density())
    return BagReport(config=cfg, R=R, mu_in=mu_in, mu_out=mu_out,
                     lam=lam, energy=energy, boundary_ratio=ratio,
                     curvature_residual=resid, flagged=flagged)


def minimize_bag(cfg: BagConfig) -> BagReport:
    """Optimal bag radius by golden search plus derivative bisection.

    The wall-balance residual of the report certifies interior optimality;
    a flagged report means the minimum sat on the search boundary."""
    return _minimize_cavity(cfg, cfg.m - cfg.g, cfg.m, cfg.g)


@dataclass
class MITReport:
    R: float
    lam: float
    energy: float


def mit_ground(cfg: BagConfig) -> MITReport:
    """Optimal radius of N quarks on level cfg.k of the confined cavity.

    The objective R -> N lam_k(R) + a P + b V is coercive, and for the
    ground level strictly convex, so the radius search finds its one
    stationary point.  The search bisects a central difference (step 1e-6)
    of the polished root, so R carries about 1e-8 relative noise.
    """
    N, m, a, b, k = cfg.n_quarks, cfg.m, cfg.a, cfg.b, cfg.k
    f = lambda R: _total(N, mit_eigenvalue(R, m, k), a, b, R)
    lo, hi = cfg.r_interval

    def df(R, step=1e-6):
        return (f(R * (1 + step)) - f(R * (1 - step))) / (2 * R * step)

    R, _ = _optimize_radius(f, df, lo, hi, iters=80)
    lam = mit_eigenvalue(R, m, k)
    return MITReport(R=R, lam=lam, energy=_total(N, lam, a, b, R))


@dataclass
class MITLimitResult:
    rows: List[BagReport]      # one per exterior mass, in order
    limit: MITReport

    def energy_gaps(self) -> np.ndarray:
        return np.array([abs(r.energy - self.limit.energy) for r in self.rows])


def mit_limit(cfg: BagConfig, masses: Sequence[float]) -> MITLimitResult:
    """Sharp-cavity minima for a growing sequence of exterior masses.

    Each row solves level cfg.k of the two-zone cavity with interior mass
    m and exterior mass M_n; the limit row is the confined cavity at the
    same level.  Energies climb toward the confined value and the boundary
    ratio u(R)/v(R) approaches the confined boundary condition u = v.
    cfg.g is never read: the rows weigh the wall by the mass jump M_n - m,
    so any coupling BagConfig accepts will do (the CLI passes g = m/2).
    """
    masses = list(masses)
    if not masses:
        raise ValueError("need at least one exterior mass")
    if not all(map(math.isfinite, masses)):
        raise ValueError(f"exterior masses must be finite, got {masses}")
    if any(mn <= cfg.m for mn in masses):
        raise ValueError("exterior masses must exceed the interior mass")
    if any(b <= a for a, b in zip(masses, masses[1:])):
        raise ValueError("exterior masses must be strictly increasing")
    rows = [_minimize_cavity(cfg, cfg.m, mn, mn - cfg.m) for mn in masses]
    return MITLimitResult(rows=rows, limit=mit_ground(cfg))
