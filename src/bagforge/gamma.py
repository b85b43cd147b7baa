"""Diffuse-interface laboratory: sharp bags as limits of smooth fields.

For a width parameter eps > 0 the regularized energy of a single occupied
level is

    E_eps(phi) = N lam_1(phi) + 4 pi int [ eps phi'^2 + W(phi)/eps
                 + b phi^2 ] r^2 dr ,

whose minimizers develop an interface of width O(eps) between the two wells
of W.  As eps decreases the energies approach the sharp-interface bag value
with surface tension a = 2 int_{-1}^0 sqrt(W), and the fields approach the
characteristic profile -chi_{B(0,R)} of the optimal bag.

The discretization places the well term at staggered midpoints, so the
pointwise arithmetic-geometric inequality

    eps phi'^2 + W(phi)/eps >= 2 |phi'| sqrt(W(phi))

turns, cell by cell, into an exact lower bound of the field energy by the
weighted total variation of the composed well coordinate — the discrete
version of the lower-bound half of the variational limit.  The sweep checks
this inequality at every accepted iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from .bag import BagConfig, BagReport, minimize_bag
from .descent import FieldFunctional, minimize_field
from .dirac import RadialField
from .grid import (FOUR_PI, RadialGrid, forward_diff, make_grid, midpoints,
                   tanh_step)
from .potentials import PotentialSpec, surface_constant

#: interfaces thinner than this many cells refuse to run
CELLS_PER_WIDTH = 10


@dataclass(frozen=True)
class GammaSweep:
    """Schedule and model for one diffuse-interface run."""

    eps_schedule: Sequence[float]
    potential: PotentialSpec
    n_quarks: int
    g: float
    m: float
    r_max: float
    n: int
    tol: float = 1e-5
    max_iter: int = 20000

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_schedule)
        finite = eps + (self.g, self.m, self.r_max, self.tol)
        if not all(map(math.isfinite, finite)):
            raise ValueError(
                f"eps, g, m, r_max and tol must be finite (got "
                f"eps={list(eps)}, g={self.g}, m={self.m}, "
                f"r_max={self.r_max}, tol={self.tol})")
        if not self.tol > 0.0:
            raise ValueError("tolerance must be positive")
        if not eps or any(e <= 0 for e in eps):
            raise ValueError("eps schedule must be positive")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        if not (0.0 < self.g < self.m):
            raise ValueError(
                f"diffuse-interface model requires 0 < g < m "
                f"(got g={self.g}, m={self.m})")
        h = self.grid().h          # make_grid checks n before r_max / n
        if h > min(eps) / CELLS_PER_WIDTH:
            raise ValueError(
                f"grid spacing h={h:.4g} under-resolves the smallest "
                f"interface: need h <= eps/{CELLS_PER_WIDTH} = "
                f"{min(eps) / CELLS_PER_WIDTH:.4g}")
        object.__setattr__(self, "eps_schedule", eps)

    def grid(self) -> RadialGrid:
        return make_grid(self.r_max, self.n)

    def functional(self, eps: float,
                   grid: Optional[RadialGrid] = None) -> FieldFunctional:
        grid = grid or self.grid()
        pot = self.potential
        return FieldFunctional(
            grid=grid, m=self.m, g=self.g, n_quarks=self.n_quarks,
            k_indices=(1,) * self.n_quarks, c_grad=eps,
            v_prim=lambda t: pot.b * t**2,
            v_prim_d=lambda t: 2.0 * pot.b * t,
            v_stag=lambda t: pot.w(t) / eps,
            v_stag_d=lambda t: pot.w_prime(t) / eps)


def eps_energy(sweep: GammaSweep, eps: float, phi: RadialField) -> float:
    """Regularized total energy of the field phi at width eps."""
    fn = sweep.functional(eps, phi.grid)
    return fn.energy(phi.values)


def field_terms(sweep: GammaSweep, eps: float, phi_vals: np.ndarray,
                grid: Optional[RadialGrid] = None):
    """(gradient term, well term, mass term) of the field energy."""
    grid = grid or sweep.grid()
    pot = sweep.potential
    vol_s = grid.vol_staggered[1:]
    dph = forward_diff(grid, phi_vals)
    e_grad = FOUR_PI * float(np.dot(vol_s, eps * dph**2))
    e_well = FOUR_PI * float(np.dot(vol_s, pot.w(midpoints(phi_vals)) / eps))
    e_mass = FOUR_PI * float(np.dot(grid.vol_primal, pot.b * phi_vals**2))
    return e_grad, e_well, e_mass


def tv_well_coordinate(sweep: GammaSweep, phi_vals: np.ndarray,
                       grid: Optional[RadialGrid] = None) -> float:
    """Weighted total variation 4 pi int 2 |phi'| sqrt(W(phi)) r^2 dr,
    evaluated with the same staggered sampling as the field energy."""
    grid = grid or sweep.grid()
    dph = forward_diff(grid, phi_vals)
    well = sweep.potential.w(midpoints(phi_vals))
    return FOUR_PI * float(np.dot(grid.vol_staggered[1:],
                                  2.0 * np.abs(dph) * np.sqrt(well)))


def interface_width(grid: RadialGrid, phi_vals: np.ndarray,
                    levels=(-0.9, -0.1)) -> float:
    """Distance between the outermost crossings of the two well levels.

    NaN when the field never reaches a level (no developed interface).
    """
    def outer_crossing(level):
        s = phi_vals - level
        idx = np.where(s[:-1] * s[1:] < 0.0)[0]
        if idx.size == 0:
            return math.nan
        i = int(idx[-1])
        frac = s[i] / (s[i] - s[i + 1])
        return grid.r_primal[i] + grid.h * frac

    r_deep = outer_crossing(levels[0])
    r_shallow = outer_crossing(levels[1])
    return r_shallow - r_deep


def l2_distance_to_bag(grid: RadialGrid, phi_vals: np.ndarray) -> tuple:
    """(distance, R) of the best-fit characteristic profile -chi_{B(0,R)}.

    The squared distance to radius R splits into cumulative sums of
    (phi+1)^2 inside and phi^2 outside; scanning cell boundaries is exact
    for the grid functional.
    """
    inside = grid.vol_primal * (phi_vals + 1.0) ** 2
    outside = grid.vol_primal * phi_vals**2
    cum_in = np.concatenate([[0.0], np.cumsum(inside)])
    total_out = np.concatenate([[np.sum(outside)],
                                np.sum(outside) - np.cumsum(outside)])
    d2 = FOUR_PI * np.maximum(cum_in + total_out, 0.0)
    i = int(np.argmin(d2))
    R = grid.r_primal[i - 1] if i > 0 else 0.0
    return math.sqrt(float(d2[i])), R


@dataclass
class GammaRow:
    eps: float
    l_s: float
    interface_width: float
    l2_dist: float
    equipartition_ratio: float
    liminf_margin: float      # (grad + well) energy minus weighted TV, >= 0
    iterations: int
    grad_norm: float
    converged: bool
    phi: np.ndarray = field(repr=False, default=None)


@dataclass
class GammaResult:
    sweep: GammaSweep
    surface_a: float
    reference: BagReport       # sharp-interface optimum (l_c)
    rows: List[GammaRow]
    feasible: bool             # l_c < N m (a genuine bag beats no bag)
    min_inline_liminf: float   # worst per-iterate lower-bound margin

    @property
    def l_c(self) -> float:
        return self.reference.energy

    def gaps(self) -> np.ndarray:
        return np.array([abs(r.l_s - self.l_c) for r in self.rows])


def reference_bag(sweep: GammaSweep) -> tuple:
    """Sharp-interface reference: bag solve with a = surface constant of W."""
    a = surface_constant(sweep.potential)
    cfg = BagConfig(n_quarks=sweep.n_quarks, g=sweep.g, m=sweep.m, a=a,
                    b=sweep.potential.b, k=1)
    return a, minimize_bag(cfg)


def initial_profile(sweep: GammaSweep, R: float, eps: float,
                    grid: Optional[RadialGrid] = None) -> np.ndarray:
    """Equipartition tanh ansatz around radius R at width eps."""
    return _tanh_profile(grid or sweep.grid(), R, eps, sweep.potential)


def _tanh_profile(grid: RadialGrid, R: float, eps: float,
                  spec: PotentialSpec) -> np.ndarray:
    s = math.sqrt(spec.kappa) / 2.0
    vals = tanh_step((grid.r_primal - R) * s / eps)
    vals[-1] = 0.0
    return vals


def recovery_energy(grid: RadialGrid, R: float, eps: float,
                    spec: PotentialSpec) -> float:
    """Field energy E_eps of the equipartition ansatz at radius R.

    Upper-bounds the sharp value a*P + b*V up to O(eps) interface
    corrections; decreasing in eps toward it.
    """
    if not (R > 0.0 and eps > 0.0):
        raise ValueError("R and eps must be positive")
    vals = _tanh_profile(grid, R, eps, spec)
    dph = forward_diff(grid, vals)
    e = float(np.dot(grid.vol_staggered[1:],
                     eps * dph**2 + spec.w(midpoints(vals)) / eps))
    e += float(np.dot(grid.vol_primal, spec.b * vals**2))
    return FOUR_PI * e


def run_sweep(sweep: GammaSweep) -> GammaResult:
    """Minimize E_eps down the schedule, warm-starting each width from the
    previous minimizer, and compare against the sharp-interface optimum.

    Cold starts at small eps fall into the trivial vacuum; the warm start is
    a requirement, not an optimization.  A descent failure truncates the
    schedule and flags the affected row.
    """
    grid = sweep.grid()
    a, ref = reference_bag(sweep)
    feasible = ref.energy < sweep.n_quarks * sweep.m and not ref.flagged
    pot = sweep.potential
    phi = initial_profile(sweep, ref.R, sweep.eps_schedule[0], grid)
    rows: List[GammaRow] = []
    worst_inline = math.inf
    for eps in sweep.eps_schedule:
        fn = sweep.functional(eps, grid)
        inline = []

        def monitor(it, phi_it, E_it, gnorm_it):
            e_grad, e_well, _ = field_terms(sweep, eps, phi_it, grid)
            inline.append(e_grad + e_well
                          - tv_well_coordinate(sweep, phi_it, grid))

        res = minimize_field(fn, phi, tol=sweep.tol, max_iter=sweep.max_iter,
                             curvature=lambda t: np.abs(pot.w_second(t)) / eps
                             + 2.0 * pot.b,
                             monitor=monitor)
        phi = res.phi
        e_grad, e_well, e_mass = field_terms(sweep, eps, phi, grid)
        tv = tv_well_coordinate(sweep, phi, grid)
        rows.append(GammaRow(
            eps=eps, l_s=res.energy,
            interface_width=interface_width(grid, phi),
            l2_dist=l2_distance_to_bag(grid, phi)[0],
            equipartition_ratio=e_grad / e_well if e_well > 0 else math.inf,
            liminf_margin=(e_grad + e_well) - tv,
            iterations=res.iterations, grad_norm=res.grad_norm,
            converged=res.converged, phi=phi.copy()))
        worst_inline = min(worst_inline, min(inline) if inline else math.inf)
        if not res.converged:
            break
    return GammaResult(sweep=sweep, surface_a=a, reference=ref, rows=rows,
                       feasible=feasible, min_inline_liminf=worst_inline)
