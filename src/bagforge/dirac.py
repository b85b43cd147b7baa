"""Discrete radial Dirac operator with scalar potential, and its
supersymmetric structure.

With the spherically symmetric spinor ansatz, the eigenvalue problem reduces
to a first-order system for the radial pair (v, u),

    (m + g phi) v + u' + 2u/r = lam v
    -v' - (m + g phi) u       = lam u ,

which is symmetric under the r^2 dr inner product.  The discretization
staggers u at half-nodes between the primal v nodes (the standard remedy
against doubler modes in first-order systems) and builds the off-diagonal
block A = d/dr + 2/r in conservative form (r^2 u)'/r^2, so that its discrete
adjoint under the quadrature weights is exactly the -d/dr block.  Boundary
closures: v(r_max) = 0 and u at the first half-node eliminated (u ~ r at the
origin); eliminating u(h/2) is what enforces the v'(0) = 0 regularity row
and removes an otherwise spurious near-origin mode.

Two spin-orbit sectors share the grid.  The default sector carries the
ansatz pair (v, u); its partner (`sector=+1`) has the roles of the node
families swapped and satisfies sigma(H_plus) = -sigma(H_minus) *exactly* in
the discretization, which is the operator-level supersymmetry: the spectrum
of the full symmetric subspace is mirror-symmetric about zero, and the
positive eigenvalues coincide with singular values of the supercharge block
(see `supercharge_singular_values`).

Ordering the unknowns v_1, u_{3/2}, v_2, u_{5/2}, ... makes the symmetrized
matrix tridiagonal, so eigenpairs come from the MRRR tridiagonal solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .grid import FOUR_PI, RadialGrid, integrate, midpoints, scatter_mid

#: spectral window default stops this fraction short of the band edge at m
WINDOW_SHAVE = 1e-6
#: relative eigenvalue gap below which first-order perturbation is refused
SIMPLE_GAP_RTOL = 1e-6


class GridMismatchError(ValueError):
    pass


class DegenerateEigenvalueError(RuntimeError):
    """Raised when a derivative formula needs a simple eigenvalue but the
    spectral gap is below the simplicity threshold."""


def _check_same_grid(a: RadialGrid, b: RadialGrid):
    if not a.same_as(b):
        raise GridMismatchError("objects live on different grids")


@dataclass(frozen=True)
class RadialField:
    """Scalar field phi(r) sampled at primal nodes; phi(r_max) = 0."""

    grid: RadialGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.n,):
            raise ValueError(f"field needs {self.grid.n} primal samples")
        if not np.all(np.isfinite(vals)):
            raise ValueError("field has non-finite samples")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if abs(vals[-1]) > 1e-8 * scale:
            raise ValueError(
                "field must vanish at the truncation boundary r_max "
                f"(got {vals[-1]!r}); enlarge r_max")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, grid: RadialGrid) -> "RadialField":
        return cls(grid=grid, values=np.zeros(grid.n))

    def staggered_values(self) -> np.ndarray:
        """Second-order interpolation to the inner staggered nodes
        r_{3/2}..r_{n-1/2}; this is the mass sampling the assembly uses."""
        return midpoints(self.values)


@dataclass(frozen=True)
class RadialSpinor:
    """Ansatz pair: u at staggered nodes, v at primal nodes.

    u[0] sits at r = h/2 and is pinned to 0 by the origin closure.
    """

    grid: RadialGrid
    u: np.ndarray = field(repr=False)
    v: np.ndarray = field(repr=False)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.shape != (self.grid.n,) or v.shape != (self.grid.n,):
            raise ValueError("spinor components must match the node families")
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)

    def norm_sq(self) -> float:
        return (integrate(self.grid, self.u**2, "staggered")
                + integrate(self.grid, self.v**2, "primal"))


@dataclass(frozen=True)
class RadialDiracOperator:
    """Symmetrized tridiagonal form of one spin-orbit sector.

    `diag`/`offdiag` are the bands of W^(1/2) H W^(-1/2); `weights` is the
    interleaved quadrature-volume vector used to map eigenvectors back.
    """

    grid: RadialGrid
    m: float
    g: float
    sector: int
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def size(self) -> int:
        return self.diag.size

    def apply_bands(self, y: np.ndarray) -> np.ndarray:
        out = self.diag * y
        out[:-1] += self.offdiag * y[1:]
        out[1:] += self.offdiag * y[:-1]
        return out

    def dense(self) -> np.ndarray:
        """Dense symmetrized matrix; for verification at small n only."""
        return (np.diag(self.diag) + np.diag(self.offdiag, 1)
                + np.diag(self.offdiag, -1))


def assemble_hamiltonian(phi: RadialField, g: float, m: float,
                         sector: int = -1) -> RadialDiracOperator:
    """Build one sector of the discrete Dirac operator with mass m + g*phi.

    sector=-1 is the ansatz sector (v primal, u staggered); sector=+1 is its
    supersymmetric partner with node roles swapped, whose spectrum mirrors
    the ansatz sector exactly.
    """
    if not m > 0.0:
        raise ValueError(f"mass must be positive, got {m}")
    if sector not in (-1, +1):
        raise ValueError("sector must be -1 or +1")
    grid = phi.grid
    n = grid.n
    rp = grid.r_primal[:n - 1]       # v-type nodes j=1..n-1
    rs = grid.r_staggered[1:]        # u-type nodes r_{3/2}..r_{n-1/2}
    h = grid.h
    mu_p = m + g * phi.values[:n - 1]
    mu_s = m + g * phi.staggered_values()
    wp = h * rp**2
    ws = h * rs**2
    nd = n - 1
    diag = np.empty(2 * nd)
    off = np.empty(2 * nd - 1)
    weights = np.empty(2 * nd)
    # symmetrized couplings reduce to +-(r_s / r_p) / h
    off[0::2] = rs / (h * rp)             # v_j -- u_{j+1/2}
    off[1::2] = -rs[:-1] / (h * rp[1:])   # u_{j+1/2} -- v_{j+1}
    weights[0::2] = wp
    weights[1::2] = ws
    # the partner sector swaps the node roles, which flips the sign pattern
    # of the mass diagonal and nothing else
    diag[0::2] = -sector * mu_p
    diag[1::2] = sector * mu_s
    return RadialDiracOperator(grid=grid, m=m, g=g, sector=sector,
                               diag=diag, offdiag=off, weights=weights)


@dataclass
class SpectralResult:
    """Eigenpairs of one sector inside a spectral window.

    eigenvalues are ascending; vectors are orthonormal under the grid inner
    product 4 pi sum(W x x').  `ladder` lists the eigenvalues in (0, m), the
    physically admissible bound states.  `gap` is the distance of 0 to the
    computed spectrum (inf when the window is empty).
    """

    operator: RadialDiracOperator
    window: Tuple[float, float]
    eigenvalues: np.ndarray
    vectors: np.ndarray          # columns, grid-orthonormal
    residual: float

    @property
    def ladder(self) -> np.ndarray:
        lam = self.eigenvalues
        return lam[(lam > 0.0) & (lam < self.operator.m)]

    def spinor(self, i: int) -> RadialSpinor:
        """Eigenvector i as a RadialSpinor (ansatz sector only)."""
        if self.operator.sector != -1:
            raise ValueError("spinor layout is defined for the ansatz sector")
        grid = self.operator.grid
        n = grid.n
        x = self.vectors[:, i]
        v = np.zeros(n)
        u = np.zeros(n)
        v[:n - 1] = x[0::2]
        u[1:] = x[1::2]
        return RadialSpinor(grid=grid, u=u, v=v)

    def ladder_spinors(self, indices: Sequence[int]) -> List[Optional[RadialSpinor]]:
        lam = self.eigenvalues
        lad_pos = np.where((lam > 0.0) & (lam < self.operator.m))[0]
        out = []
        for k in indices:
            out.append(self.spinor(int(lad_pos[k - 1])) if k <= lad_pos.size else None)
        return out

    def gram_deviation(self) -> float:
        G = FOUR_PI * (self.vectors.T * self.operator.weights[None, :]) @ self.vectors
        return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def eigen_solve(op: RadialDiracOperator,
                window: Optional[Tuple[float, float]] = None) -> SpectralResult:
    """All eigenpairs of the sector operator inside the window.

    Default window stops just short of the band edges +-m, where the
    truncated continuum starts.  Residual norms of the returned pairs are
    checked against the direct solver's backward-stability budget.
    """
    if window is None:
        w = op.m * (1.0 - WINDOW_SHAVE)
        window = (-w, w)
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"empty window {window}")
    try:
        lam, y = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                                  select_range=(lo, hi))
    except np.linalg.LinAlgError as exc:   # pragma: no cover - LAPACK failure
        raise RuntimeError(f"tridiagonal eigensolver failed: {exc}") from exc
    residual = 0.0
    for i in range(lam.size):
        r = op.apply_bands(y[:, i]) - lam[i] * y[:, i]
        residual = max(residual, float(np.linalg.norm(r)))
    scale = max(op.m, float(np.max(np.abs(lam))) if lam.size else op.m)
    if residual > 1e-8 * scale:
        raise RuntimeError(
            f"eigensolver residual {residual:.3e} exceeds tolerance; "
            f"window={window}")
    # map back: x = W^(-1/2) y, normalized to unit grid norm
    x = y / np.sqrt(op.weights)[:, None] / math.sqrt(FOUR_PI)
    return SpectralResult(operator=op, window=window, eigenvalues=lam,
                          vectors=x, residual=residual)


def density(psi: RadialSpinor) -> RadialField:
    """Scalar density v^2 - u^2 at primal nodes.

    u^2 is brought to the primal nodes by volume-weighted averaging of the
    two adjacent staggered samples; with this choice the density is exactly
    the variational derivative of the eigenvalue with respect to the field,
    so first-order perturbation formulas hold to solver precision.
    """
    grid = psi.grid
    n = grid.n
    vol_s = grid.vol_staggered
    vol_p = grid.vol_primal
    usq = vol_s * psi.u**2
    avg = np.empty(n)
    avg[:n - 1] = (usq[:n - 1] + usq[1:]) / (2.0 * vol_p[:n - 1])
    avg[n - 1] = usq[n - 1] / (2.0 * vol_p[n - 1])
    return RadialField(grid=grid, values=_zero_tail(psi.v**2 - avg))


def density_partials(y: np.ndarray, g: float) -> np.ndarray:
    """d lam / d phi_a at the free primal nodes for a tridiagonal-basis
    eigenvector y of the ansatz sector (any normalization).

    The v-rows carry the mass m + g phi directly, the u-rows its midpoint
    average with the opposite sign, so the midpoint scatter returns their
    share to the primal nodes.  This is g times the `density` of the
    normalized state, weighted by 4 pi and the primal volume weights.
    """
    ysq = y**2 / float(np.dot(y, y))
    d = g * ysq[0::2]
    scatter_mid(d, -(g * 0.5 * ysq[1::2]))
    return d


def _zero_tail(vals: np.ndarray) -> np.ndarray:
    # densities inherit v(r_max) = 0 only approximately; pin the last node
    out = np.array(vals, dtype=float)
    out[-1] = 0.0
    return out


def hellmann_feynman(phi: RadialField, eigenpair: Tuple[float, RadialSpinor],
                     direction: RadialField, g: float, m: float) -> float:
    """Derivative of a simple eigenvalue along a field perturbation.

    Equals g * 4 pi int phi'(r) (v^2 - u^2) r^2 dr for the normalized
    eigenstate.  Refuses when the eigenvalue is not isolated by the
    simplicity threshold, where the first-order formula breaks down.
    """
    lam, psi = eigenpair
    _check_same_grid(phi.grid, direction.grid)
    _check_same_grid(phi.grid, psi.grid)
    nrm = psi.norm_sq()
    if abs(nrm - 1.0) > 1e-8:
        raise ValueError(f"eigenstate must be normalized (norm^2 = {nrm})")
    op = assemble_hamiltonian(phi, g=g, m=m)
    delta = 4.0 * SIMPLE_GAP_RTOL * m
    res = eigen_solve(op, window=(lam - delta, lam + delta))
    others = res.eigenvalues[np.abs(res.eigenvalues - lam) > 1e-12 * m]
    if others.size:
        gap = float(np.min(np.abs(others - lam)))
        if gap <= SIMPLE_GAP_RTOL * m:
            raise DegenerateEigenvalueError(
                f"eigenvalue gap {gap:.3e} below simplicity threshold "
                f"{SIMPLE_GAP_RTOL * m:.3e}")
    rho = density(psi)
    return g * integrate(phi.grid, direction.values * rho.values, "primal")


def supercharge_singular_values(phi: RadialField, g: float, m: float) -> np.ndarray:
    """Singular values (ascending) of the discrete supercharge block.

    These coincide with |eigenvalues| of the ansatz-sector operator — the
    operator identity behind the inf-sup characterization of the positive
    bound-state ladder.  Dense SVD: use on verification-sized grids.
    """
    op = assemble_hamiltonian(phi, g=g, m=m)
    # weight-conjugated supercharge [[M_v, -A], [A^dag, M_u]]: positive mass
    # diagonal plus an antisymmetric first-order part, i.e. the ansatz matrix
    # with its u-columns negated.
    signs = np.ones(op.size)
    signs[1::2] = -1.0
    idx = np.arange(op.size)
    R = np.zeros((op.size, op.size))
    R[idx, idx] = op.diag * signs
    R[idx[:-1], idx[1:]] = op.offdiag * signs[1:]
    R[idx[1:], idx[:-1]] = op.offdiag * signs[:-1]
    return np.sort(np.linalg.svd(R, compute_uv=False))
