"""Soliton bag ground and excited states by energy minimization.

The energy of N quarks occupying ladder levels k_1 <= ... <= k_N in a radial
scalar field phi is

    E(phi) = sum_i lam^{k_i}(phi) + 4 pi int [ phi'^2 / 2 + U(phi) ] r^2 dr,

with U the double-well-plus-mass self-interaction.  Levels absent from the
bound-state window (0, m) contribute the band edge m each, so E(0) = N*m and
a field is worth keeping only when it binds quarks below their free mass.

A `SolitonConfig` is one problem: the model, the descent's budget and the
mesh `cfg.grid`, built once with it (`descent.check_budget` refuses the
budget, `make_grid` the mesh); `energy`, `gradient` and `el_residual_from`
refuse a field on a mesh of another n or r_max.  The same problem at n/2 is
`dataclasses.replace(cfg, n=cfg.n // 2)`.  The solver is damped gradient
descent in an H^1 metric with Armijo backtracking (monotone energies by
construction).  A minimizer is reported with its descent's last solve and
the residual of the coupled stationarity system: the field equation
-Delta phi + U'(phi) + sum_i g (v_i^2 - u_i^2) = 0 and the eigen-residuals
of the window's levels, from the certificate's own cold solve.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .descent import (DescentResult, FieldFunctional, check_budget,
                      minimize_field)
from .dirac import RadialField, RadialSpinor, density
from .grid import (FOUR_PI, RadialGrid, check_mesh, forward_diff, make_grid,
                   scatter_diff, tanh_step)
from .potentials import PotentialSpec


@dataclass(frozen=True)
class ModelParams:
    """Quark content: N particles on ladder levels k_1 <= ... <= k_N."""

    n_quarks: int
    g: float
    m: float
    k_indices: Tuple[int, ...] = (1,)

    def __post_init__(self):
        if self.n_quarks < 1:
            raise ValueError("need at least one quark")
        if not (math.isfinite(self.g) and math.isfinite(self.m)):
            raise ValueError(
                f"coupling and mass must be finite (got g={self.g}, m={self.m})")
        if not self.g > 0.0:
            raise ValueError("coupling g must be positive")
        if not self.m > 0.0:
            raise ValueError("mass m must be positive")
        ks = tuple(int(k) for k in self.k_indices)
        if len(ks) != self.n_quarks:
            raise ValueError("one excitation index per quark")
        if any(k < 1 for k in ks) or list(ks) != sorted(ks):
            raise ValueError("excitation indices must be ascending and >= 1")
        object.__setattr__(self, "k_indices", ks)


@dataclass(frozen=True)
class SolitonConfig:
    model: ModelParams
    potential: PotentialSpec
    r_max: float
    n: int
    tol: float = 1e-6
    max_iter: int = 4000
    grid: RadialGrid = field(init=False, repr=False, compare=False)  # one mesh

    def __post_init__(self):
        check_budget(self.tol, self.max_iter)
        object.__setattr__(self, "grid", make_grid(self.r_max, self.n))

    def functional(self) -> FieldFunctional:
        pot = self.potential
        return FieldFunctional(grid=self.grid, m=self.model.m, g=self.model.g,
                               k_indices=self.model.k_indices, c_grad=0.5,
                               v_prim=pot.u, v_prim_d=pot.u_prime,
                               curvature=pot.u_second)


@dataclass
class ELResidual:
    field: float     # L^2(r^2 dr) norm of the field equation residual
    eigen: float     # worst eigenpair residual over every window level


@dataclass
class SolitonReport:
    config: SolitonConfig
    phi: RadialField
    lambdas: np.ndarray    # the occupied levels, read from `descent.ladder`
    spinors: List[Optional[RadialSpinor]]   # and their states, likewise
    energy: float
    history: List[float]
    converged: bool
    el: ELResidual         # the certificate, from its own cold solve
    all_bound: bool        # every occupied level strictly inside (0, m)
    descent: DescentResult  # the descent's record, with its run telemetry


def initial_guess(cfg: SolitonConfig) -> np.ndarray:
    """Smoothed well of depth m/g: deep enough to bind, shallow enough that
    the effective mass stays nonnegative (the basin the theory controls)."""
    m, g = cfg.model.m, cfg.model.g
    r0, w = 2.0 / m, 0.5 / m
    vals = (m / g) * tanh_step((cfg.grid.r_primal - r0) / w)
    vals[-1] = 0.0
    return vals


def energy(cfg: SolitonConfig, phi: RadialField) -> float:
    """Total energy at a field phi on the config's mesh."""
    check_mesh(cfg.grid, phi.grid, "config and field")
    return cfg.functional().energy_and_ladder(phi.values)[0]


def gradient(cfg: SolitonConfig, phi: RadialField) -> RadialField:
    """L^2 gradient of the energy; refuses on near-degenerate levels."""
    check_mesh(cfg.grid, phi.grid, "config and field")
    fn, v = cfg.functional(), phi.values
    dE = fn.gradient_partials(v, fn.ladder(v), fn.terms(v))
    return RadialField(grid=cfg.grid, values=fn.as_field(dE))


def minimize(cfg: SolitonConfig,
             phi0: Optional[np.ndarray] = None) -> SolitonReport:
    """Minimize the soliton energy from the standard (or given) initial well.

    The report's levels and states are those of the descent's last solve,
    equal to a cold solve's bit for bit; the certificate makes the one cold
    solve.  Non-convergence within the iteration budget returns a flagged
    partial report; a descent that leaves double range raises RuntimeError.
    """
    fn = cfg.functional()
    start = initial_guess(cfg) if phi0 is None else np.asarray(phi0, float)
    res = minimize_field(fn, start, tol=cfg.tol, max_iter=cfg.max_iter)
    phi = RadialField(grid=cfg.grid, values=res.phi)
    # holds every used level, and the final gradient has read its vectors
    solve = res.ladder
    m = cfg.model.m
    lam = fn.occupied(solve)
    return SolitonReport(config=cfg, phi=phi, lambdas=lam,
                         spinors=solve.ladder_spinors(cfg.model.k_indices),
                         energy=res.energy, history=res.history,
                         converged=res.converged,
                         el=el_residual_from(cfg, phi),
                         all_bound=bool(np.all((lam > 0.0) & (lam < m))),
                         descent=res)


def el_residual_from(cfg: SolitonConfig, phi: RadialField) -> ELResidual:
    """Stationarity residuals of phi from its own cold solve of the window.

    The field equation is evaluated from the discrete Laplacian of phi, the
    potential derivative and the quark densities of the solve's occupied
    ladder states; the eigen-residual is the worst backward error of the
    pairs of every window level.
    """
    check_mesh(cfg.grid, phi.grid, "config and field")
    solve = cfg.functional().ladder(phi.values)
    grid = cfg.grid
    nd = grid.n - 1
    pot = cfg.potential
    vals = phi.values
    t = grid.vol_staggered[1:] * forward_diff(grid, vals) / grid.h
    lap = np.zeros(nd)
    scatter_diff(lap, t)
    resid = lap / grid.vol_primal[:nd] + pot.u_prime(vals[:nd])
    for psi in solve.ladder_spinors(cfg.model.k_indices):
        if psi is not None:
            resid = resid + cfg.model.g * density(psi).values[:nd]
    norm = math.sqrt(FOUR_PI * float(np.dot(grid.vol_primal[:nd], resid**2)))
    return ELResidual(field=norm, eigen=float(solve.residual))
