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

`GammaSweep.functional` is the one description of E_eps on `sweep.grid`:
the gradient weight eps, the well W/eps at the midpoints and the mass term
b phi^2 at the nodes, with their slopes and the curvature bound
|W''|/eps + 2b that the descent metric reads; `field_terms` splits its
quadrature sums (the sweep reads them from its descents' `FieldTerms`), and
`recovery_energy` is its field energy at the equipartition tanh ansatz.
A sweep refuses its inputs at construction: the mesh by `make_grid`, the
budget by `descent.check_budget`, and N, g and m by the `BagConfig` it
builds as `sweep.bag`, the sharp-bag problem that `reference_bag` solves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .bag import BagConfig, BagReport, minimize_bag
from .descent import (DescentResult, FieldFunctional, check_budget,
                      minimize_field)
from .dirac import RadialField
from .grid import (FOUR_PI, RadialGrid, check_mesh, forward_diff, make_grid,
                   midpoints, tanh_step)
from .potentials import PotentialSpec, surface_constant

#: interfaces thinner than this many cells refuse to run
CELLS_PER_WIDTH = 10
#: field levels near the two wells whose outermost crossings bound the
#: interface that `interface_width` measures
WIDTH_LEVELS = (-0.9, -0.1)


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
    grid: RadialGrid = field(init=False, repr=False, compare=False)  # one mesh
    bag: BagConfig = field(init=False, repr=False, compare=False)  # sharp limit

    def __post_init__(self):
        eps = tuple(float(e) for e in self.eps_schedule)
        if not all(map(math.isfinite, eps)):
            raise ValueError(f"eps schedule must be finite, got {list(eps)}")
        check_budget(self.tol, self.max_iter)
        if not eps:
            raise ValueError("eps schedule is empty")
        if any(e <= 0 for e in eps):
            raise ValueError("eps schedule must be positive")
        if any(e2 >= e1 for e1, e2 in zip(eps, eps[1:])):
            raise ValueError("eps schedule must be strictly decreasing")
        object.__setattr__(self, "bag", BagConfig(
            n_quarks=self.n_quarks, g=self.g, m=self.m,
            a=surface_constant(self.potential), b=self.potential.b))
        object.__setattr__(self, "grid", make_grid(self.r_max, self.n))
        h = self.grid.h
        if h > min(eps) / CELLS_PER_WIDTH:
            raise ValueError(
                f"grid spacing h={h:.4g} under-resolves the smallest "
                f"interface: need h <= eps/{CELLS_PER_WIDTH} = "
                f"{min(eps) / CELLS_PER_WIDTH:.4g}")
        object.__setattr__(self, "eps_schedule", eps)

    def functional(self, eps: float) -> FieldFunctional:
        pot = self.potential
        return FieldFunctional(
            grid=self.grid, m=self.m, g=self.g, k_indices=(1,) * self.n_quarks,
            c_grad=eps,
            v_prim=lambda t: pot.b * t**2,
            v_prim_d=lambda t: 2.0 * pot.b * t,
            curvature=lambda t: np.abs(pot.w_second(t)) / eps + 2.0 * pot.b,
            v_stag=lambda t: pot.w(t) / eps,
            v_stag_d=lambda t: pot.w_prime(t) / eps)


def eps_energy(sweep: GammaSweep, eps: float, phi: RadialField) -> float:
    """Regularized energy at width eps of a field on the sweep's mesh."""
    check_mesh(sweep.grid, phi.grid, "sweep and field")
    return sweep.functional(eps).energy_and_ladder(phi.values)[0]


def field_terms(sweep: GammaSweep, eps: float, phi_vals: np.ndarray):
    """(gradient term, well term, mass term) of the field energy."""
    sums = sweep.functional(eps).terms(phi_vals).sums
    return tuple(FOUR_PI * s for s in sums)


def tv_well_coordinate(sweep: GammaSweep, phi_vals: np.ndarray) -> float:
    """Weighted total variation 4 pi int 2 |phi'| sqrt(W(phi)) r^2 dr,
    evaluated with the same staggered sampling as the field energy."""
    return _weighted_tv(sweep, forward_diff(sweep.grid, phi_vals),
                        midpoints(phi_vals))


def _weighted_tv(sweep: GammaSweep, dph: np.ndarray, mid: np.ndarray) -> float:
    # `tv_well_coordinate` of the field with these differences and midpoints
    well = sweep.potential.w(mid)
    return FOUR_PI * float(np.dot(sweep.grid.vol_staggered[1:],
                                  2.0 * np.abs(dph) * np.sqrt(well)))


def interface_width(grid: RadialGrid, phi_vals: np.ndarray) -> float:
    """Distance between the outermost crossings of the two `WIDTH_LEVELS`.

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

    deep, shallow = WIDTH_LEVELS
    return outer_crossing(shallow) - outer_crossing(deep)


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
    converged: bool
    descent: DescentResult = field(repr=False)   # field, run telemetry


@dataclass
class GammaResult:
    sweep: GammaSweep
    reference: BagReport       # sharp-interface optimum (l_c)
    rows: List[GammaRow]
    feasible: bool             # l_c < N m (a genuine bag beats no bag)
    min_inline_liminf: float   # worst per-iterate lower-bound margin

    @property
    def l_c(self) -> float:
        return self.reference.energy

    def gaps(self) -> np.ndarray:
        return np.array([abs(r.l_s - self.l_c) for r in self.rows])


def reference_bag(sweep: GammaSweep) -> BagReport:
    """Sharp-interface reference: the optimum of the sweep's `bag`."""
    return minimize_bag(sweep.bag)


def initial_profile(sweep: GammaSweep, R: float, eps: float) -> np.ndarray:
    """Equipartition tanh ansatz around radius R at width eps."""
    s = math.sqrt(sweep.potential.kappa) / 2.0
    vals = tanh_step((sweep.grid.r_primal - R) * s / eps)
    vals[-1] = 0.0
    return vals


def recovery_energy(sweep: GammaSweep, R: float, eps: float) -> float:
    """Field energy E_eps of the equipartition ansatz at radius R.

    Upper-bounds the sharp value a*P + b*V up to O(eps) interface
    corrections; decreasing in eps toward it.
    """
    if not (R > 0.0 and eps > 0.0):
        raise ValueError("R and eps must be positive")
    return sweep.functional(eps).field_energy(
        initial_profile(sweep, R, eps))


def run_sweep(sweep: GammaSweep) -> GammaResult:
    """Minimize E_eps down the schedule, warm-starting each width from the
    previous minimizer and its ladder (the eigenvalue part does not depend
    on eps), and compare against the sharp-interface optimum.

    Cold starts at small eps fall into the trivial vacuum; the warm start is
    a requirement, not an optimization.  A descent failure truncates the
    schedule and flags the affected row.
    """
    ref = reference_bag(sweep)
    feasible = ref.energy < sweep.n_quarks * sweep.m and not ref.flagged
    phi = initial_profile(sweep, ref.R, sweep.eps_schedule[0])
    solve = None        # the ladder at phi, once a descent has solved it
    rows: List[GammaRow] = []
    inline = []         # every iterate's lower-bound margin

    def split(terms):   # `field_terms` and the margin of the field's terms
        e_grad, e_well, _ = (FOUR_PI * s for s in terms.sums)
        tv = _weighted_tv(sweep, terms.dph, terms.mid)
        return e_grad, e_well, (e_grad + e_well) - tv

    def monitor(it, phi_it, E_it, gnorm_it, terms):
        inline.append(split(terms)[2])

    for eps in sweep.eps_schedule:
        res = minimize_field(sweep.functional(eps), phi, tol=sweep.tol,
                             max_iter=sweep.max_iter, monitor=monitor,
                             solve=solve)
        phi, solve = res.phi, res.ladder
        e_grad, e_well, margin = split(res.terms)
        rows.append(GammaRow(
            eps=eps, l_s=res.energy,
            interface_width=interface_width(sweep.grid, phi),
            l2_dist=l2_distance_to_bag(sweep.grid, phi)[0],
            equipartition_ratio=e_grad / e_well if e_well > 0 else math.inf,
            liminf_margin=margin, converged=res.converged, descent=res))
        if not res.converged:
            break
    return GammaResult(sweep=sweep, reference=ref, rows=rows,
                       feasible=feasible,
                       min_inline_liminf=min(inline, default=math.inf))
