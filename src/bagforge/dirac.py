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
adjoint under the grid's own volume weights (`RadialGrid.vol_primal` and
`vol_staggered`, which every integral reads) is exactly the -d/dr block;
those weights symmetrize the operator.  Boundary closures: v(r_max) = 0
and u at the first half-node eliminated (u ~ r at the origin); eliminating
u(h/2) is what enforces the v'(0) = 0 regularity row and removes an
otherwise spurious near-origin mode.  The mesh is the grid's alone: this
module computes no weight, and a warm result of another mesh is refused
by `grid.check_mesh`.

Two spin-orbit sectors share the grid.  The default sector carries the
ansatz pair (v, u); its partner (`sector=+1`) has the roles of the node
families swapped and satisfies sigma(H_plus) = -sigma(H_minus) *exactly* in
the discretization, which is the operator-level supersymmetry: the spectrum
of the full symmetric subspace is mirror-symmetric about zero, and the
positive eigenvalues coincide with singular values of the supercharge block
(see `supercharge_singular_values`).

Ordering the unknowns v_1, u_{3/2}, v_2, u_{5/2}, ... makes the symmetrized
matrix tridiagonal, so eigenpairs in a window come from tridiagonal bisection
(LAPACK stebz) followed by inverse iteration (stein).  `eigen_solve` runs
only the bisection when called; inverse iteration, the residual certificate
and the map back to grid-normalized vectors run on the first read of the
result's vectors (or residual), once.  A caller that reads eigenvalues only,
such as a rejected line-search trial or the invariant battery, pays for the
bisection alone.

A caller that solves a sequence of nearby fields, like the field descent,
passes the previous result as `warm`: each level's bisection then resumes
from a subinterval of stebz's own midpoint tree that holds the level alone,
found from an enclosure of the level that one inverse-iteration step from
warm's vector gives, and the output is bit-equal to the full bisection's.
A single count-only Sturm count certifies the subintervals; where it or
another check fails, the full bisection runs.  A caller that reads only the
lowest few levels, like the descent's energy, passes `levels`: the resumed
bisection then finds those levels alone, and the same count proves the next
level farther from the last one than the simplicity gap, under which
`SpectralResult.check_simple` refuses first-order perturbation; such a
result is not `complete`.  That check is the one simplicity rule: the
descent's gradient and `hellmann_feynman(solve, k, d)` both read a solve
and refuse through it, without solving again.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field
from functools import cached_property
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigvals_banded
from scipy.linalg.lapack import dgtsv, dstebz, dstein

from .grid import (FOUR_PI, RadialGrid, check_mesh, integrate, midpoints,
                   read_only, scatter_mid)

#: spectral window default stops this fraction short of the band edge at m
WINDOW_SHAVE = 1e-6
#: relative eigenvalue gap below which first-order perturbation is refused
SIMPLE_GAP_RTOL = 1e-6
#: LAPACK dlamch("P") and the smallest normal number, as Python floats,
#: which the resumed bisection's scalar loop runs on
_ULP = float(np.finfo(float).eps)
_TINY = float(np.finfo(float).tiny)


class DegenerateEigenvalueError(RuntimeError):
    """Raised when a derivative formula needs a simple eigenvalue but the
    spectral gap is below the simplicity threshold."""


class NonFiniteError(ValueError):
    """Raised for a field, or an operator to solve, with a non-finite entry."""


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
            raise NonFiniteError("field has non-finite samples")
        scale = max(1.0, float(np.max(np.abs(vals))))
        if abs(vals[-1]) > 1e-8 * scale:
            raise ValueError(
                "field must vanish at the truncation boundary r_max "
                f"(got {vals[-1]!r}); enlarge r_max")
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls, grid: RadialGrid) -> "RadialField":
        return cls(grid=grid, values=np.zeros(grid.n))


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
    `offdiag`, `weights`, the Gershgorin radii `radii` of the off-diagonal
    (|e_(i-1)| + |e_i| in row i) and `pivmin`, the pivot floor of stebz
    (the smallest normal number times max(1, max e^2)), depend on the grid
    alone; every operator on one grid shares them, read-only.
    """

    grid: RadialGrid
    m: float
    g: float
    sector: int
    diag: np.ndarray = field(repr=False)
    offdiag: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)
    radii: np.ndarray = field(repr=False)
    pivmin: float = field(repr=False)

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


#: the field-independent arrays of each live grid's operators: a memo of
#: read-only values that depend on the immutable grid alone, dropped with it
_GRID_BANDS: "weakref.WeakKeyDictionary[RadialGrid, tuple]" = (
    weakref.WeakKeyDictionary())


def _grid_bands(grid: RadialGrid) -> tuple:
    """(offdiag, weights, radii, pivmin) of the operators on `grid`, built
    on the first call for the grid."""
    bands = _GRID_BANDS.get(grid)
    if bands is None:
        nd = grid.n - 1
        rp = grid.r_primal[:nd]          # v-type nodes j=1..n-1
        rs = grid.r_staggered[1:]        # u-type nodes r_{3/2}..r_{n-1/2}
        h = grid.h
        off = np.empty(2 * nd - 1)
        weights = np.empty(2 * nd)
        # symmetrized couplings reduce to +-(r_s / r_p) / h
        off[0::2] = rs / (h * rp)             # v_j -- u_{j+1/2}
        off[1::2] = -rs[:-1] / (h * rp[1:])   # u_{j+1/2} -- v_{j+1}
        weights[0::2] = grid.vol_primal[:nd]
        weights[1::2] = grid.vol_staggered[1:]
        ae = np.abs(off)
        radii = np.append(ae, 0.0)
        radii[1:] += ae
        read_only(off, weights, radii)
        bands = (off, weights, radii,
                 _TINY * max(1.0, float(np.max(off * off))))
        _GRID_BANDS[grid] = bands
    return bands


def assemble_hamiltonian(phi: RadialField, g: float, m: float,
                         sector: int = -1) -> RadialDiracOperator:
    """Build one sector of the discrete Dirac operator with mass m + g*phi.

    sector=-1 is the ansatz sector (v primal, u staggered); sector=+1 is its
    supersymmetric partner with node roles swapped, whose spectrum mirrors
    the ansatz sector exactly.  Only the mass diagonal depends on the
    field; the rest comes from the grid's cache (`_grid_bands`).
    """
    if not m > 0.0:
        raise ValueError(f"mass must be positive, got {m}")
    if sector not in (-1, +1):
        raise ValueError("sector must be -1 or +1")
    grid = phi.grid
    vals = phi.values
    diag = np.empty(2 * grid.n - 2)
    # the partner sector swaps the node roles, which flips the sign pattern
    # of the mass diagonal and nothing else
    diag[0::2] = -sector * (m + g * vals[:-1])
    diag[1::2] = sector * (m + g * midpoints(vals))
    off, weights, radii, pivmin = _grid_bands(grid)
    return RadialDiracOperator(grid=grid, m=m, g=g, sector=sector,
                               diag=diag, offdiag=off, weights=weights,
                               radii=radii, pivmin=pivmin)


@dataclass
class SpectralResult:
    """Eigenpairs of one sector inside a spectral window.

    eigenvalues are ascending; vectors are orthonormal under the grid inner
    product 4 pi sum(W x x').  `ladder` lists the eigenvalues in (0, m), the
    physically admissible bound states.  The eigenvalues come with the
    result; the vectors and their residual are computed on first read from
    the stored bisection output (`bisection`: stebz's block-ordered values,
    block indices and splits, and the permutation sorting the values).

    A result holds every level of the window (`complete`), or, when
    `eigen_solve` was asked for the lowest `levels` only, possibly just
    those, with the next level certified farther from the last one than the
    simplicity gap.  Values, vectors and residual are then those of the
    lowest levels of the complete result, bit for bit.
    """

    operator: RadialDiracOperator
    window: Tuple[float, float]
    eigenvalues: np.ndarray
    bisection: tuple = field(repr=False)
    #: whether every level of the window is held
    complete: bool
    #: "full" (no warm result given), "resumed" (bisection resumed from a
    #: warm result's enclosures) or "fallback" (a warm result was given but
    #: its enclosures failed a check, so the full bisection ran)
    start: str = "full"

    @cached_property
    def _pairs(self) -> Tuple[np.ndarray, float]:
        """Inverse iteration on the bisection output, checked against the
        direct solver's backward-stability budget and mapped back to
        grid-normalized vectors; raises RuntimeError past the budget."""
        op = self.operator
        w, iblock, isplit, order = self.bisection
        y, info = dstein(op.diag, op.offdiag, w, iblock, isplit)
        _check_lapack(info, "stein")
        y = y[:, order]
        lam = self.eigenvalues
        residual = 0.0
        for i in range(lam.size):
            r = op.apply_bands(y[:, i]) - lam[i] * y[:, i]
            residual = max(residual, float(np.linalg.norm(r)))
        scale = max(op.m, float(np.max(np.abs(lam))) if lam.size else op.m)
        if residual > 1e-8 * scale:
            raise RuntimeError(
                f"eigensolver residual {residual:.3e} exceeds tolerance; "
                f"window={self.window}")
        # map back: x = W^(-1/2) y, normalized to unit grid norm
        x = y / np.sqrt(op.weights)[:, None] / math.sqrt(FOUR_PI)
        return x, residual

    @property
    def vectors(self) -> np.ndarray:
        """Eigenvector columns, grid-orthonormal."""
        return self._pairs[0]

    @property
    def residual(self) -> float:
        """Largest residual norm of the pairs in the tridiagonal basis."""
        return self._pairs[1]

    @property
    def ladder(self) -> np.ndarray:
        """The eigenvalues in (0, m); a partial result refuses, since it
        may not hold them all."""
        if not self.complete:
            raise ValueError("a partial result does not hold the whole "
                             "ladder; solve without `levels` to list it")
        return self.eigenvalues[self._in_ladder]

    @property
    def _in_ladder(self) -> np.ndarray:     # mask of the eigenvalues in (0, m)
        return (self.eigenvalues > 0.0) & (self.eigenvalues < self.operator.m)

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

    @cached_property
    def basis_vectors(self) -> np.ndarray:
        """Eigenvector columns in the tridiagonal basis, W^(1/2) sqrt(4 pi)
        times `vectors`, for perturbation formulas (`density_partials`) and
        for the enclosures of a solve that starts from this one."""
        return (self.vectors * np.sqrt(self.operator.weights)[:, None]
                * math.sqrt(FOUR_PI))

    def _ladder_positions(self, indices: Sequence[int]) -> List[Optional[int]]:
        """Index into `eigenvalues` of each ladder level k >= 1 (None past
        the ladder of a complete result; a partial result refuses a level
        it does not hold)."""
        lad_pos = np.flatnonzero(self._in_ladder)
        out = []
        for k in indices:
            if k < 1:
                raise ValueError(f"ladder levels count from 1, got {k}")
            if k > lad_pos.size and not self.complete:
                raise ValueError(f"ladder level {k} is above the "
                                 f"{lad_pos.size} held by a partial result")
            out.append(int(lad_pos[k - 1]) if k <= lad_pos.size else None)
        return out

    def ladder_spinors(self, indices: Sequence[int]) -> List[Optional[RadialSpinor]]:
        return [None if i is None else self.spinor(i)
                for i in self._ladder_positions(indices)]

    def check_simple(self, indices: Sequence[int]):
        """Refuse first-order formulas when one of the ladder levels k of
        `indices` lies within the simplicity gap SIMPLE_GAP_RTOL*m of a
        neighbouring level.

        A partial result has certified the level after its last one
        farther than that gap (`_resumed_bisection`), so the gap this skips
        would pass."""
        lam = self.eigenvalues
        thr = SIMPLE_GAP_RTOL * self.operator.m
        for k, i in zip(indices, self._ladder_positions(indices)):
            # the gaps to the held neighbours below and above
            gap = (math.inf if i is None else
                   min(np.diff(lam[max(i - 1, 0):i + 2]), default=math.inf))
            if gap <= thr:
                raise DegenerateEigenvalueError(
                    f"ladder level {k} gap {gap:.3e} below simplicity "
                    f"threshold {thr:.3e}")

    def gram_deviation(self) -> float:
        G = FOUR_PI * (self.vectors.T * self.operator.weights[None, :]) @ self.vectors
        return float(np.max(np.abs(G - np.eye(G.shape[0]))))


def _check_lapack(info: int, routine: str):
    # the error mapping of scipy's eigh_tridiagonal, with its LinAlgError
    # (no convergence) reported as RuntimeError
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of {routine}")
    if info > 0:
        raise RuntimeError(f"tridiagonal eigensolver failed: {routine} "
                           f"did not converge (LAPACK info={info})")


def _bisection(op: RadialDiracOperator, window: Tuple[float, float]):
    """(ascending eigenvalues, stein inputs) of the bisection.

    The stebz call `eigh_tridiagonal(select="v")` makes when it computes
    vectors (range V, tol 0, block order), so values and, through
    `SpectralResult`, vectors are bit-equal to it.
    """
    count, w, iblock, isplit, info = dstebz(op.diag, op.offdiag, 1, window[0],
                                            window[1], 1, 1, 0.0, "B")
    _check_lapack(info, "stebz")
    w = w[:count]
    order = np.argsort(w)
    return w[order], (w, iblock, isplit, order)


def _enclosures(op: RadialDiracOperator, warm: SpectralResult,
                j: Optional[int] = None):
    """(lower, upper) ends of one interval for each of the lowest j levels
    of `warm` (all of them by default), each meant to hold the same level
    of `op`.

    One step of shifted inverse iteration from warm's vector (a `dgtsv`
    solve at the warm eigenvalue) and the Rayleigh quotient of the
    result, widened by the Kato-Temple bound r^2/gap (the residual norm r
    where the gap to the neighbouring levels is not larger than r).  The
    neighbours of the lowest level and of the top one are the window's
    bottom end and warm's next held level, or the window's top end.
    Warm's vectors are read here if no one has read them; the descent's
    warm result is a field whose gradient it took, so they are at hand.
    The intervals only steer the resumed bisection; a wrong one costs a
    fallback, never a bit.
    """
    lam = warm.eigenvalues[:j]
    ys = warm.basis_vectors[:, :lam.size].T
    rho = np.empty(lam.size)
    r = np.empty(lam.size)
    for i, y in enumerate(ys):
        _, _, _, z, info = dgtsv(op.offdiag, op.diag - lam[i], op.offdiag, y)
        if info or not np.all(np.isfinite(z)):
            z = y
        z = z / np.linalg.norm(z)
        tz = op.apply_bands(z)
        rho[i] = float(np.dot(z, tz))
        r[i] = float(np.linalg.norm(tz - rho[i] * z))
    nxt = (warm.eigenvalues[lam.size] if warm.eigenvalues.size > lam.size
           else warm.window[1])
    ends = np.concatenate(([warm.window[0]], rho, [nxt]))
    gap = np.minimum(rho - ends[:-2], ends[2:] - rho)
    half = np.where(gap > r, r * r / np.maximum(gap, r), r)
    return rho - half, rho + half


def _resumed_bisection(op: RadialDiracOperator, window: Tuple[float, float],
                       warm: SpectralResult, levels: Optional[int] = None):
    """(ascending eigenvalues, stein inputs, complete) equal bit for bit to
    `_bisection(op, window)` or, given `levels`, possibly to its lowest
    `levels` values and their stein inputs; None where that equality is not
    certified.

    stebz bisects (vl, vu] at midpoints 0.5*(lo + hi), keeps every half
    holding an eigenvalue by its Sturm count and stops an interval when it
    is narrower than its tolerance.  A node of that midpoint tree holding
    one eigenvalue is therefore bisected from then on exactly as a stebz
    call over the node itself bisects it, down to the same last interval
    and midpoint (Parlett, The Symmetric Eigenvalue Problem, sec. 3.3).
    The lowest j levels, j = min(levels, warm's levels), are resumed.  Each
    level's node is found by replaying the midpoints from the window ends
    while they miss the level's enclosure, never below a width far above
    stebz's stopping width; an enclosure holding the window's midpoint
    leaves the whole window as its node, which falls back.  The nodes must
    be ordered and disjoint and hold one eigenvalue each, and one
    count-only stebz over (vl, c] must find j: with Sturm counts monotone
    in floating point (Demmel, Dhillon & Ren, ETNA 3, 1995) the nodes then
    hold the lowest j eigenvalues, each alone, which the full bisection
    reaches, and the next eigenvalue lies above c.  c is vu, so the window
    holds these j levels only, unless j = levels and a level more may be
    left out: then c is the last value plus the simplicity gap
    SIMPLE_GAP_RTOL*m (at most vu), which `check_simple` would refuse if
    the next level were closer.  A window that stebz would clip to the
    Gershgorin interval, or a matrix that splits into blocks, is left to
    the full bisection.
    """
    d, e = op.diag, op.offdiag
    held = warm.eigenvalues.size
    if not held:                        # nothing to resume from
        return None
    j = held if levels is None else min(levels, held)
    vl, vu = window
    ulp, pivmin = _ULP, op.pivmin
    gl, gu = float(np.min(d - op.radii)), float(np.max(d + op.radii))
    scale = max(-gl, gu, abs(vl), abs(vu))
    # stebz widens the Gershgorin interval by ~2 n ulp scale before it clips
    # the window to it; its stopping width is at most 2 ulp scale + pivmin
    margin = 4.0 * (op.size * ulp * scale + pivmin)
    if not (gl + margin < vl and vu < gu - margin):
        return None
    # nodes stay this wide, and the enclosures are widened by as much to
    # cover their own rounding and the Sturm counts' backward error
    floor = 16.0 * (ulp * scale + pivmin)
    lower, upper = _enclosures(op, warm, j)
    nodes = []
    for a, b in zip((lower - floor).tolist(), (upper + floor).tolist()):
        lo, hi = vl, vu
        while 0.5 * (hi - lo) >= floor:
            mid = 0.5 * (lo + hi)
            if mid < a:
                lo = mid
            elif mid > b:
                hi = mid
            else:
                break
        nodes.append((lo, hi))
    if (vl, vu) in nodes or any(hi > lo for (_, hi), (lo, _)
                                in zip(nodes, nodes[1:])):
        return None
    w = np.empty(j)
    for i, (lo, hi) in enumerate(nodes):
        one, wi, _, _, info = dstebz(d, e, 1, lo, hi, 1, 1, 0.0, "B")
        if info or one != 1:
            return None
        w[i] = wi[0]
    c = vu if j != levels else min(vu, w[-1] + SIMPLE_GAP_RTOL * op.m + floor)
    count, _, iblock, isplit, info = dstebz(d, e, 1, vl, c, 1, 1, c - vl, "B")
    if info or count != j or isplit[0] != op.size:
        return None
    order = np.argsort(w)
    return w[order], (w, iblock, isplit, order), bool(c == vu)


def bound_window(m: float) -> Tuple[float, float]:
    """The bound-state window (0, m), shaved like `eigen_solve`'s default
    window (this one and its mirror image); its levels are the ladder."""
    return (0.0, m * (1.0 - WINDOW_SHAVE))


def eigen_solve(op: RadialDiracOperator,
                window: Optional[Tuple[float, float]] = None,
                warm: Optional[SpectralResult] = None,
                levels: Optional[int] = None) -> SpectralResult:
    """All eigenpairs of the sector operator inside the window.

    Default window stops just short of the band edges +-m.  The call runs
    the bisection, so the eigenvalues are final; inverse iteration, the
    check of the pairs' residual norms against the direct solver's
    backward-stability budget and the map to grid-normalized vectors run on
    the first read of `vectors` or `residual`, once.

    `warm`, the result of the same sector, window and mesh at a nearby field,
    lets the bisection resume from its levels (`_resumed_bisection`); the
    values, vectors and residual are bit-equal to a solve without it, and
    `start` tells which way they came.  With `warm`, `levels`, an integer
    >= 1 (anything else is refused, ValueError), asks for the lowest
    `levels` levels only: the result may then hold just those, with the
    values, vectors and residual of the complete solve's lowest ones, and
    is not `complete`.  A cold solve always holds the whole window, though
    `FieldFunctional.ladder` passes `levels` on its first, cold call too.
    An operator with a non-finite entry raises NonFiniteError.
    """
    if levels is not None and not (isinstance(levels, (int, np.integer))
                                   and levels >= 1):
        raise ValueError(f"levels must be an integer >= 1, got {levels!r}")
    if window is None:      # the truncated continuum starts at the band edges
        _, w = bound_window(op.m)
        window = (-w, w)
    lo, hi = window
    if not lo < hi:
        raise ValueError(f"empty window {window}")
    if not (np.isfinite(op.diag).all() and np.isfinite(op.offdiag).all()):
        raise NonFiniteError("array must not contain infs or NaNs")
    resumed = None
    if warm is not None:
        if warm.window != window or warm.operator.sector != op.sector:
            raise ValueError("warm result is of another window or sector")
        check_mesh(op.grid, warm.operator.grid, "warm result and operator")
        resumed = _resumed_bisection(op, window, warm, levels)
    if resumed is None:
        lam, stein_inputs = _bisection(op, window)
        complete = True
    else:
        lam, stein_inputs, complete = resumed
    start = ("full" if warm is None else
             "fallback" if resumed is None else "resumed")
    return SpectralResult(operator=op, window=window, eigenvalues=lam,
                          bisection=stein_inputs, complete=complete,
                          start=start)


def density(psi: RadialSpinor) -> RadialField:
    """Scalar density v^2 - u^2 at primal nodes.

    u^2 is averaged, volume-weighted, onto the free primal nodes by the
    midpoint scatter `scatter_mid`, as in `density_partials` (the pinned
    u(h/2) does not enter); so the density is exactly the variational
    derivative of the eigenvalue with respect to the field, and first-order
    formulas hold to solver precision.  v(r_max) = 0 holds only
    approximately, so the last node is pinned to 0.
    """
    grid = psi.grid
    usq = np.zeros(grid.n - 1)
    scatter_mid(usq, grid.vol_staggered[1:] * psi.u[1:]**2)
    rho = np.zeros(grid.n)
    rho[:-1] = psi.v[:-1]**2 - usq / (2.0 * grid.vol_primal[:-1])
    return RadialField(grid=grid, values=rho)


def density_partials(y: np.ndarray, g: float) -> np.ndarray:
    """d lam / d phi_a at the free primal nodes for a tridiagonal-basis
    eigenvector y of the ansatz sector (any normalization), such as a
    column of `SpectralResult.basis_vectors`.

    The v-rows carry the mass m + g phi directly, the u-rows its midpoint
    average with the opposite sign, so the midpoint scatter returns their
    share to the primal nodes.  This is g times the `density` of the
    normalized state, weighted by 4 pi and the primal volume weights.
    """
    ysq = y**2 / float(np.dot(y, y))
    d = g * ysq[0::2]
    scatter_mid(d, -(g * 0.5 * ysq[1::2]))
    return d


def hellmann_feynman(solve: SpectralResult, k: int,
                     direction: RadialField) -> float:
    """Derivative g * 4 pi int phi'(r) (v^2 - u^2) r^2 dr of ladder level k
    of `solve` along a field perturbation, from the level's state; refuses
    through `solve.check_simple` a level that is not simple and (ValueError)
    one not bound or held, or a direction on another mesh."""
    op = solve.operator
    check_mesh(op.grid, direction.grid, "solve and direction")
    solve.check_simple([k])
    psi = solve.ladder_spinors([k])[0]
    if psi is None:
        raise ValueError(f"ladder level {k} is not bound")
    rho = density(psi).values
    return op.g * integrate(op.grid, direction.values * rho, "primal")


def supercharge_singular_values(op: RadialDiracOperator) -> np.ndarray:
    """Singular values (ascending) of the supercharge block of `op`, an
    ansatz-sector operator (the partner sector is refused, ValueError).

    These coincide with |eigenvalues| of the operator — the operator
    identity behind the inf-sup characterization of the positive
    bound-state ladder.  They are computed without that identity, as square
    roots of the eigenvalues of the Gram matrix R R^T of the supercharge R,
    formed from R's own entries.  R is tridiagonal, so R R^T is symmetric
    banded with bandwidth 2 and the banded eigensolver costs O(size^2) where
    a dense SVD costs O(size^3); it is half the size of the Jordan-Wielandt
    matrix [[0, R], [R^T, 0]] (Golub & Van Loan, Matrix Computations,
    sec. 8.6), whose bandwidth is 3.

    Accuracy: the banded solve is backward stable, so each eigenvalue of
    R R^T carries an absolute error of about eps ||R||^2, and the square
    root turns it into an error of about eps ||R||^2 / (2 sigma) in sigma.
    The smallest singular value sigma_min is hit hardest; for a gapped well
    (sigma_min ~ 1e-2 m) on an h = 0.05 grid (||R|| ~ 2/h) that is ~2e-11,
    against eps ||R|| ~ 1e-14 for Jordan-Wielandt.
    """
    if op.sector != -1:
        raise ValueError("the supercharge is defined for the ansatz sector")
    # weight-conjugated supercharge [[M_v, -A], [A^dag, M_u]]: positive mass
    # diagonal plus an antisymmetric first-order part, i.e. the ansatz matrix
    # with its u-columns negated, tridiagonal like the operator.
    signs = np.ones(op.size)
    signs[1::2] = -1.0
    a = op.diag * signs              # R[i, i]
    lower = op.offdiag * signs[:-1]  # R[i+1, i]
    upper = op.offdiag * signs[1:]   # R[i, i+1]
    # upper band storage puts (R R^T)[p, p+k] at band[2-k, p+k]
    band = np.zeros((3, op.size))
    band[2] = a * a
    band[2, :-1] += upper * upper
    band[2, 1:] += lower * lower
    band[1, 1:] = a[:-1] * lower + upper * a[1:]
    band[0, 2:] = upper[:-1] * lower[1:]
    # rounding can push a zero singular value's square just below 0
    return np.sqrt(np.maximum(eigvals_banded(band), 0.0))
