"""Shared energy functional and preconditioned descent for radial fields.

Both the soliton minimization and the diffuse-interface sweeps minimize

    E(phi) = sum_i lam^{k_i}(phi)  +  4 pi int [ c_grad phi'^2
             + V_stag(phi) + V_prim(phi) ] r^2 dr

over fields pinned to zero at r_max.  The eigenvalue terms come from the
ansatz-sector Dirac operator; levels missing from the bound-state window
(0, m) contribute the band edge m, which makes the functional continuous in
phi and reproduces E(0) = N*m.

The gradient is *exact* for the discrete functional: the eigenvalue part is
first-order perturbation of the assembled matrix, the field part is the
algebraic derivative of the quadrature sums.  The eigen-solve's
`dirac.SpectralResult` is the ladder the descent holds: it refuses the
perturbation formula when a used level is not simple (`check_simple`) and
gives the used levels' vectors in the tridiagonal basis that
`density_partials` reads.  Descent directions are preconditioned by the
field metric (stiffness + curvature-adapted mass), i.e. an H^1-gradient
flow; an Armijo line search guarantees a nonincreasing energy history.
Each trial field's eigen-solve resumes its bisection from the accepted
field's levels (`dirac.eigen_solve`'s `warm`) and resolves only the levels
up to the highest used one (its `levels`), which leaves every bit of those
levels as a cold solve would; `DescentResult`, the one record of a
descent that the soliton report and the sweep's rows hold, counts how each
solve started.

A `FieldFunctional` is the whole description of a field model: besides the
quark content it carries its potential's value, slope and curvature, so the
energy, its gradient and the descent metric all read the same hooks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import LinAlgError
from scipy.linalg.lapack import dptsv

from .dirac import (NonFiniteError, RadialField, SpectralResult,
                    assemble_hamiltonian, bound_window, density_partials,
                    eigen_solve)
from .grid import (FOUR_PI, RadialGrid, forward_diff, midpoints, read_only,
                   scatter_diff, scatter_mid)

#: Armijo sufficient-decrease constant
ARMIJO_C1 = 1e-4


@dataclass(frozen=True)
class FieldTerms:
    """The field part of the energy at one field: its staggered differences
    `dph`, its midpoints `mid` (None without V_stag) and the (gradient,
    staggered, primal) quadrature sums `sums`, without the 4 pi."""

    dph: np.ndarray = field(repr=False)
    mid: Optional[np.ndarray] = field(repr=False)
    sums: tuple


@dataclass(frozen=True, eq=False)
class FieldFunctional:
    """Discrete energy of quarks on ladder levels k_indices in a radial field.

    The field part is c_grad phi'^2 + V_stag + V_prim: V_prim is a (value,
    slope) pair at primal nodes, the optional V_stag one at staggered
    midpoints, and `curvature` gives the potential's curvature at the free
    primal nodes (or a bound on its modulus), which the descent metric
    reads.  The model configs (`SolitonConfig`, `GammaSweep`) validate the
    parameters.  The weights that depend on the grid and c_grad alone are
    built once, with the functional, and refuse assignment.
    """

    grid: RadialGrid
    m: float
    g: float
    k_indices: Sequence[int]
    c_grad: float
    v_prim: Callable
    v_prim_d: Callable
    curvature: Callable
    v_stag: Optional[Callable] = None
    v_stag_d: Optional[Callable] = None

    def __post_init__(self):
        gr = self.grid
        vol_s = gr.vol_staggered[1:]
        stiff = FOUR_PI * vol_s * max(self.c_grad, 1e-12) / gr.h**2
        cached = {
            "_mass": FOUR_PI * gr.vol_primal[:-1],   # free-node mass weights
            "_grad_w": vol_s * self.c_grad * 2.0,    # gradient term's weights
            "_half_w": 0.5 * vol_s,                  # well term's weights
            "_stiff": stiff, "_stiff_off": -stiff[:-1]}   # metric stiffness
        for name, a in cached.items():
            read_only(a)
            object.__setattr__(self, name, a)
        object.__setattr__(self, "_window", bound_window(self.m))

    # -- eigenvalue ladder -------------------------------------------------

    def ladder(self, phi_vals: np.ndarray,
               warm: Optional[SpectralResult] = None) -> SpectralResult:
        """The eigen-solve of the bound-state window (0, m) at phi_vals, so
        ladder level k is eigenvalue k - 1; `warm`, the ladder at a nearby
        field, lets it resume from its levels with the same bits, and then
        it may resolve no level above the highest used one."""
        phi = RadialField(grid=self.grid, values=phi_vals)
        op = assemble_hamiltonian(phi, g=self.g, m=self.m)
        return eigen_solve(op, window=self._window, warm=warm,
                           levels=max(self.k_indices))

    def occupied(self, solve: SpectralResult) -> np.ndarray:
        """lam^{k_i} of the used levels, a level missing from the ladder
        padded with the band edge m."""
        lam = solve.eigenvalues
        values = np.empty(len(self.k_indices))
        for i, k in enumerate(self.k_indices):
            values[i] = lam[k - 1] if k <= lam.size else self.m
        return values

    # -- field terms ---------------------------------------------------------

    def terms(self, phi_vals: np.ndarray) -> FieldTerms:
        """The field terms at phi_vals; the staggered sum is 0 without
        V_stag."""
        dph = forward_diff(self.grid, phi_vals)
        vol_s = self.grid.vol_staggered[1:]
        grad = float(np.dot(vol_s, self.c_grad * dph**2))
        if self.v_stag is None:
            mid, stag = None, 0.0
        else:
            mid = midpoints(phi_vals)
            stag = float(np.dot(vol_s, self.v_stag(mid)))
        prim = float(np.dot(self.grid.vol_primal, self.v_prim(phi_vals)))
        return FieldTerms(dph=dph, mid=mid, sums=(grad, stag, prim))

    def field_energy(self, phi_vals: np.ndarray) -> float:
        return FOUR_PI * sum(self.terms(phi_vals).sums)

    def energy(self, solve: SpectralResult, terms: FieldTerms) -> float:
        """The energy of the field whose ladder and field terms these are."""
        return float(np.sum(self.occupied(solve))) + FOUR_PI * sum(terms.sums)

    def energy_and_ladder(self, phi_vals: np.ndarray,
                          warm: Optional[SpectralResult] = None) -> tuple:
        """(energy, ladder, field terms) at phi_vals."""
        solve = self.ladder(phi_vals, warm)
        terms = self.terms(phi_vals)
        return self.energy(solve, terms), solve, terms

    # -- exact gradient ------------------------------------------------------

    def gradient_partials(self, phi_vals: np.ndarray, solve: SpectralResult,
                          terms: FieldTerms) -> np.ndarray:
        """dE/dphi_a for the free nodes a = 0..n-2 (phi_n is pinned) from
        the ladder and field terms at phi_vals, with no eigen-solve; refuses
        on near-degenerate levels.  Reading `solve`'s vectors runs its
        inverse iteration, which a rejected line-search trial skips."""
        gr = self.grid
        nd = gr.n - 1
        solve.check_simple(self.k_indices)
        dE = np.zeros(nd)
        y = solve.basis_vectors
        for k in self.k_indices:
            if k <= solve.eigenvalues.size:
                dE += density_partials(y[:, k - 1], self.g)
        t = self._grad_w * terms.dph / gr.h
        scatter_diff(dE, FOUR_PI * t)
        if self.v_stag_d is not None:
            half = self._half_w * self.v_stag_d(terms.mid)
            scatter_mid(dE, FOUR_PI * half)
        dE += self._mass * self.v_prim_d(phi_vals[:nd])
        return dE

    def as_field(self, dE: np.ndarray) -> np.ndarray:
        """L^2(r^2 dr) representation of the free-node partials dE, padded
        with the pinned boundary zero so it is a RadialField-shaped array."""
        out = np.zeros(self.grid.n)
        out[:-1] = dE / self._mass
        return out

    def grad_norm(self, grad_field: np.ndarray) -> float:
        return math.sqrt(FOUR_PI * float(np.dot(self.grid.vol_primal,
                                                grad_field**2)))

    # -- descent metric ------------------------------------------------------

    def metric_step(self, phi: np.ndarray, dE: np.ndarray) -> np.ndarray:
        """The preconditioned direction M^-1 dE of the field metric at phi:
        stiffness plus the mass weights sharpened by the curvature, a
        symmetric positive definite tridiagonal matrix, solved by LAPACK's
        dptsv, the routine `solveh_banded` runs on a two-row band.  A
        non-finite dE or metric raises ValueError, as `solveh_banded`'s
        check does."""
        diag = (self._mass * (1.0 + np.abs(self.curvature(phi[:-1])))
                + self._stiff)
        diag[1:] += self._stiff[:-1]
        np.asarray_chkfinite(dE)
        np.asarray_chkfinite(diag)
        _, _, d, info = dptsv(diag, self._stiff_off, dE, overwrite_d=1)
        if info > 0:
            raise LinAlgError(f"{info}th leading minor not positive definite")
        if info < 0:
            raise ValueError(f"illegal value in {-info}th argument of dptsv")
        return d


@dataclass
class DescentResult:
    phi: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    history: list
    #: the solve at `phi`; it may hold no level above the highest used one
    ladder: SpectralResult
    terms: FieldTerms       # the field terms at `phi`
    #: eigen-solves by `SpectralResult.start`: "full", "resumed", "fallback"
    solves: dict
    #: line-search trials the Armijo test rejected
    backtracks: int


def check_budget(tol: float, max_iter: int) -> None:
    """The budget rule each model config applies: refuse (ValueError) a tol
    that is not finite and positive, or max_iter < 1."""
    if not 0.0 < tol < math.inf:
        raise ValueError(
            f"tolerance must be finite and positive, got tol={tol}")
    if max_iter < 1:
        raise ValueError(
            f"iteration budget must be >= 1, got max_iter={max_iter}")


def minimize_field(fn: FieldFunctional, phi0: np.ndarray, *, tol: float,
                   max_iter: int, monitor: Optional[Callable] = None,
                   solve: Optional[SpectralResult] = None) -> DescentResult:
    """Preconditioned gradient descent with Armijo backtracking.

    The metric's mass term is sharpened by the functional's curvature, which
    matters for stiff wells (the diffuse-interface runs carry a 1/eps factor
    there).  The budget, `tol` and `max_iter`, is the model config's.  Accepted
    steps never increase the energy; the record holds their history and the
    gradient norm, ladder and field terms of the returned field.  `solve`, the
    ladder of phi0 under the same g, m, grid and levels (a previous descent's
    `DescentResult.ladder`), is used as it is instead of solving phi0 again.
    `monitor(it, phi, E, gnorm, terms)` is called with each iterate before its
    step.  Each trial is one `energy_and_ladder` call, whose ladder and field
    terms serve an accepted trial's gradient and the monitor as they are.  A
    trial whose operator or energy is not finite is rejected; a start field,
    iterate energy or gradient norm that is not finite, or a line search with
    no finite trial, raises RuntimeError naming g.
    """
    def left_range(it, what):
        return RuntimeError(f"field descent at coupling g={fn.g!r} left "
                            f"double range at iteration {it}: {what}")

    phi = np.array(phi0, dtype=float)
    phi[-1] = 0.0
    if not np.all(np.isfinite(phi)):
        raise left_range(1, "the start field has non-finite samples")
    solves = {"full": 0, "resumed": 0, "fallback": 0}
    if solve is None:
        E, solve, terms = fn.energy_and_ladder(phi)
        solves[solve.start] += 1
    else:       # the energy `energy_and_ladder` gives
        terms = fn.terms(phi)
        E = fn.energy(solve, terms)
    alpha = 1.0
    history = [E]
    converged = False
    backtracks = 0
    it = 0
    for it in range(1, max_iter + 1):
        dE = fn.gradient_partials(phi, solve, terms)
        gnorm = fn.grad_norm(fn.as_field(dE))
        if not (math.isfinite(E) and math.isfinite(gnorm)):
            raise left_range(it, f"energy {E!r}, gradient norm {gnorm!r}")
        if monitor is not None:
            monitor(it, phi, E, gnorm, terms)
        if gnorm <= tol:
            converged = True
            break
        d = fn.metric_step(phi, dE)
        slope = float(np.dot(dE, d))
        if slope <= 0.0:          # metric is SPD, so this means dE ~ 0;
            break                 # not converged, as gnorm > tol
        in_range = False
        while alpha > 1e-16:
            trial = phi.copy()
            trial[:-1] -= alpha * d
            try:
                E_t, solve_t, terms_t = fn.energy_and_ladder(trial, solve)
            except NonFiniteError:      # g * trial left double range
                E_t = math.inf
            else:
                solves[solve_t.start] += 1
            in_range = in_range or math.isfinite(E_t)
            if math.isfinite(E_t) and E_t <= E - ARMIJO_C1 * alpha * slope:
                phi, E, solve, terms = trial, E_t, solve_t, terms_t
                history.append(E)
                alpha = min(alpha * 1.6, 64.0)
                break
            backtracks += 1
            alpha *= 0.5
        else:       # every trial rejected
            if not in_range:
                raise left_range(it, "no line-search trial has finite energy")
            break
    else:   # out of budget after an accepted step: gnorm is the previous one
        gnorm = fn.grad_norm(fn.as_field(
            fn.gradient_partials(phi, solve, terms)))
        converged = gnorm <= tol
    return DescentResult(phi=phi, energy=E, grad_norm=gnorm, iterations=it,
                         converged=converged, history=history, ladder=solve,
                         terms=terms, solves=solves, backtracks=backtracks)
