"""Shared energy functional and preconditioned descent for radial fields.

Both the soliton minimization and the diffuse-interface sweeps minimize

    E(phi) = sum_i lam^{k_i}(phi)  +  4 pi int [ c_grad phi'^2
             + V_stag(phi) + V_prim(phi) ] r^2 dr

over fields pinned to zero at r_max.  The eigenvalue terms come from the
ansatz-sector Dirac operator; levels missing from the bound-state window
(0, m) contribute the band edge m, which makes the functional continuous in
phi and reproduces E(0) = N*m.

The gradient is *exact* for the discrete functional: the eigenvalue part is
first-order perturbation of the assembled matrix (valid while each used
level is simple), the field part is the algebraic derivative of the
quadrature sums.  Descent directions are preconditioned by the field
metric (stiffness + mass), i.e. an H^1-gradient flow; an Armijo line search
guarantees a nonincreasing energy history.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np
from scipy.linalg import solveh_banded

from .dirac import (DegenerateEigenvalueError, RadialField, SIMPLE_GAP_RTOL,
                    WINDOW_SHAVE, assemble_hamiltonian, density_partials,
                    eigen_solve)
from .grid import (FOUR_PI, RadialGrid, forward_diff, midpoints, scatter_diff,
                   scatter_mid)

#: Armijo sufficient-decrease constant
ARMIJO_C1 = 1e-4


@dataclass
class LadderSolve:
    values: np.ndarray            # lam^{k_i} with band-edge padding
    vectors: List[Optional[np.ndarray]]   # tridiagonal eigenvectors or None
    spectral: object              # SpectralResult of the positive window


@dataclass
class FieldFunctional:
    """Discrete energy of N quarks in a radial scalar field.

    V_prim/V_stag are (value, derivative) callable pairs evaluated at primal
    nodes and staggered midpoints respectively; either may be None.
    """

    grid: RadialGrid
    m: float
    g: float
    n_quarks: int
    k_indices: Sequence[int] = (1,)
    c_grad: float = 0.5
    v_prim: Optional[Callable] = None
    v_prim_d: Optional[Callable] = None
    v_stag: Optional[Callable] = None
    v_stag_d: Optional[Callable] = None

    def __post_init__(self):
        ks = tuple(int(k) for k in self.k_indices)
        if len(ks) != self.n_quarks:
            raise ValueError("one excitation index per quark")
        if any(k < 1 for k in ks) or list(ks) != sorted(ks):
            raise ValueError("excitation indices must be ascending and >= 1")
        if not (0 < self.g):
            raise ValueError("coupling must be positive")
        self.k_indices = ks

    # -- eigenvalue ladder -------------------------------------------------

    def ladder(self, phi_vals: np.ndarray) -> LadderSolve:
        phi = RadialField(grid=self.grid, values=phi_vals)
        op = assemble_hamiltonian(phi, g=self.g, m=self.m)
        res = eigen_solve(op, window=(0.0, self.m * (1.0 - WINDOW_SHAVE)))
        lam = res.eigenvalues
        values = np.empty(len(self.k_indices))
        vectors: List[Optional[np.ndarray]] = []
        # tridiagonal-basis vectors for perturbation formulas
        y = res.vectors * np.sqrt(op.weights)[:, None] * math.sqrt(FOUR_PI)
        for i, k in enumerate(self.k_indices):
            if k <= lam.size:
                values[i] = lam[k - 1]
                vectors.append(y[:, k - 1])
            else:
                values[i] = self.m
                vectors.append(None)
        return LadderSolve(values=values, vectors=vectors, spectral=res)

    def check_simple(self, solve: LadderSolve):
        """Refuse first-order formulas when a used level is nearly degenerate."""
        lam = solve.spectral.eigenvalues
        thr = SIMPLE_GAP_RTOL * self.m
        for k in self.k_indices:
            if k > lam.size:
                continue
            gaps = []
            if k >= 2:
                gaps.append(lam[k - 1] - lam[k - 2])
            if k < lam.size:
                gaps.append(lam[k] - lam[k - 1])
            if gaps and min(gaps) <= thr:
                raise DegenerateEigenvalueError(
                    f"ladder level {k} gap {min(gaps):.3e} below simplicity "
                    f"threshold {thr:.3e}")

    # -- field terms ---------------------------------------------------------

    def field_energy(self, phi_vals: np.ndarray) -> float:
        gr = self.grid
        dph = forward_diff(gr, phi_vals)
        vol_s = gr.vol_staggered[1:]
        e = float(np.dot(vol_s, self.c_grad * dph**2))
        if self.v_stag is not None:
            e += float(np.dot(vol_s, self.v_stag(midpoints(phi_vals))))
        if self.v_prim is not None:
            e += float(np.dot(gr.vol_primal, self.v_prim(phi_vals)))
        return FOUR_PI * e

    def energy(self, phi_vals: np.ndarray) -> float:
        solve = self.ladder(phi_vals)
        return float(np.sum(solve.values)) + self.field_energy(phi_vals)

    def energy_and_ladder(self, phi_vals: np.ndarray):
        solve = self.ladder(phi_vals)
        return float(np.sum(solve.values)) + self.field_energy(phi_vals), solve

    # -- exact gradient ------------------------------------------------------

    def gradient_partials(self, phi_vals: np.ndarray,
                          solve: Optional[LadderSolve] = None,
                          check_gap: bool = True) -> np.ndarray:
        """dE/dphi_a for the free nodes a = 0..n-2 (phi_n is pinned)."""
        gr = self.grid
        nd = gr.n - 1
        if solve is None:
            solve = self.ladder(phi_vals)
        if check_gap:
            self.check_simple(solve)
        dE = np.zeros(nd)
        for y in solve.vectors:
            if y is not None:
                dE += density_partials(y, self.g)
        vol_s = gr.vol_staggered[1:]
        t = vol_s * self.c_grad * 2.0 * forward_diff(gr, phi_vals) / gr.h
        scatter_diff(dE, FOUR_PI * t)
        if self.v_stag_d is not None:
            half = 0.5 * vol_s * self.v_stag_d(midpoints(phi_vals))
            scatter_mid(dE, FOUR_PI * half)
        if self.v_prim_d is not None:
            dE += FOUR_PI * gr.vol_primal[:nd] * self.v_prim_d(phi_vals[:nd])
        return dE

    def gradient_field(self, phi_vals: np.ndarray, **kw) -> np.ndarray:
        """L^2(r^2 dr) representation of the gradient, padded with the pinned
        boundary zero so it is a RadialField-shaped array."""
        return self.as_field(self.gradient_partials(phi_vals, **kw))

    def as_field(self, dE: np.ndarray) -> np.ndarray:
        """Field representation of the free-node partials dE (see
        `gradient_field`)."""
        out = np.zeros(self.grid.n)
        out[:-1] = dE / (FOUR_PI * self.grid.vol_primal[:-1])
        return out

    def grad_norm(self, grad_field: np.ndarray) -> float:
        return math.sqrt(FOUR_PI * float(np.dot(self.grid.vol_primal,
                                                grad_field**2)))


@dataclass
class DescentResult:
    phi: np.ndarray
    energy: float
    grad_norm: float
    iterations: int
    converged: bool
    history: list = field(default_factory=list)
    ladder: Optional[LadderSolve] = None


def _metric_bands(fn: FieldFunctional, curvature: Optional[np.ndarray]):
    gr = fn.grid
    nd = gr.n - 1
    mass = FOUR_PI * gr.vol_primal[:nd].copy()
    if curvature is not None:
        mass = mass * (1.0 + np.abs(curvature))
    stiff = FOUR_PI * gr.vol_staggered[1:] * max(fn.c_grad, 1e-12) / gr.h**2
    diag = mass + stiff
    diag[1:] += stiff[:-1]
    ab = np.zeros((2, nd))
    ab[0, 1:] = -stiff[:-1]
    ab[1] = diag
    return ab


def minimize_field(fn: FieldFunctional, phi0: np.ndarray, tol: float = 1e-6,
                   max_iter: int = 2000, alpha0: float = 1.0,
                   curvature: Optional[Callable] = None,
                   monitor: Optional[Callable] = None) -> DescentResult:
    """Preconditioned gradient descent with Armijo backtracking.

    curvature(phi) may supply a nonnegative per-node stiffness estimate that
    sharpens the metric for stiff wells (used by the diffuse-interface runs
    where the well term carries a 1/eps factor).  Accepted steps never
    increase the energy; the returned history lists accepted energies.
    """
    phi = np.array(phi0, dtype=float)
    phi[-1] = 0.0
    E, solve = fn.energy_and_ladder(phi)
    alpha = alpha0
    history = [E]
    gnorm = math.inf
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        dE = fn.gradient_partials(phi, solve=solve)
        gnorm = fn.grad_norm(fn.as_field(dE))
        if monitor is not None:
            monitor(it, phi, E, gnorm)
        if gnorm <= tol:
            converged = True
            break
        curv = curvature(phi[:-1]) if curvature is not None else None
        ab = _metric_bands(fn, curv)
        d = solveh_banded(ab, dE, lower=False)
        slope = float(np.dot(dE, d))
        if slope <= 0.0:          # metric is SPD, so this means dE ~ 0
            converged = gnorm <= tol
            break
        accepted = False
        while alpha > 1e-16:
            trial = phi.copy()
            trial[:-1] -= alpha * d
            E_t, solve_t = fn.energy_and_ladder(trial)
            if E_t <= E - ARMIJO_C1 * alpha * slope:
                phi, E, solve = trial, E_t, solve_t
                history.append(E)
                alpha = min(alpha * 1.6, 64.0)
                accepted = True
                break
            alpha *= 0.5
        if not accepted:
            break
    return DescentResult(phi=phi, energy=E, grad_norm=gnorm, iterations=it,
                         converged=converged, history=history, ladder=solve)
