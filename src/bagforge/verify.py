"""Invariant battery: structural identities the solvers must satisfy.

Each identity has a measurement, which returns the numbers asserted on, and
a seeded `check_*` wrapper that draws its inputs, applies the tolerance and
returns (name, passed, detail).  The wrappers are the `verify` subcommand;
the measurements are shared by the battery and the test suite.  They cover
the operator identities (mirror spectrum across the two spin-orbit sectors,
singular values of the supercharge block), the first-order perturbation
formula against finite differences, agreement between the matrix
eigensolver and the closed-form two-zone oracle, and the confined-cavity
monotonicity.

Most measurements read eigenvalues only, and `eigen_solve` computes no
eigenvector until one is read: both sectors of the mirror pairing, the
finite-difference legs of `hf_mismatch` and the matrix level of
`oracle_gap`.  Only the ground state of `hf_mismatch`, which
`hellmann_feynman` reads, and of `normalization_errors` reads its
eigenvector; `supercharge_svd_error` reads full spectra.

The measurements bisect only where their answers are:

* `mirror_pairing` bisects the ansatz sector over its whole window and
  the partner only in a window of half-width PARTNER_RTOL m around each
  mirror image -lambda.  One count over the partner's whole window
  (`dirac.window_count`) certifies what that skips: it must find as many
  levels as the ansatz sector holds, each small window exactly one.
  Otherwise the partner's whole window is bisected, as is done without
  the certificate.
* `oracle_gap` bisects (0, lam + ORACLE_RTOL mu_out] of the closed-form
  level lam, which holds the ground level whenever the check can pass; it
  needs no count, since the window reaches down to 0.  Where it holds no
  level, the whole bound window is bisected.
* `hf_mismatch` bisects windows just wide enough to hold the shifted
  level (Weyl's bound), and `normalization_errors` the default window.
* the cavity checks solve each level on its own branch of x = kR
  (`dispersion`).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .dirac import (RadialField, RadialDiracOperator, assemble_hamiltonian,
                    bound_window, density, eigen_solve, hellmann_feynman,
                    supercharge_singular_values, window_count)
from .dispersion import TwoZoneProblem, eigenvalues, mit_eigenvalue
from .grid import make_grid

Check = Tuple[str, bool, str]

#: the oracle check's tolerance on |matrix - matching|, relative to mu_out
ORACLE_RTOL = 2e-3
#: half-width, relative to m, of the window around -lambda in which
#: `mirror_pairing` bisects each partner level
PARTNER_RTOL = 1e-12


def random_bound_field(grid, m: float, g: float, rng: np.random.Generator,
                       depth: float = 1.0) -> RadialField:
    """Smooth random multi-bump well with m + g*phi >= depth-scaled floor.

    depth=1 touches the zero-mass floor; depth<1 keeps a strict gap.
    """
    r = grid.r_primal
    raw = np.zeros_like(r)
    for _ in range(rng.integers(1, 4)):
        center = rng.uniform(0.0, 0.45 * grid.r_max)
        width = rng.uniform(0.08, 0.22) * grid.r_max
        raw += rng.uniform(0.3, 1.0) * np.exp(-((r - center) / width) ** 2)
    peak = float(np.max(raw))
    scale = depth * rng.uniform(0.5, 1.0) / peak
    vals = -(m / g) * scale * raw
    vals[-1] = 0.0
    if abs(vals[-2]) > 1e-10:      # force decay into the last cells
        vals *= np.minimum(1.0, (grid.r_max - r) / (0.05 * grid.r_max))
        vals[-1] = 0.0
    return RadialField(grid=grid, values=vals)


def gaussian_field(grid, center: float, width: float,
                   height: float = 1.0) -> RadialField:
    """height * exp(-((r - center)/width)^2), 0 at r_max: a smooth well
    (height < 0) or a perturbation direction."""
    vals = height * np.exp(-((grid.r_primal - center) / width) ** 2)
    vals[-1] = 0.0
    return RadialField(grid=grid, values=vals)


def square_well(grid, depth: float, R: float) -> RadialField:
    """-depth on r < R, 0 beyond (and at r_max)."""
    vals = np.where(grid.r_primal < R, -depth, 0.0)
    vals[-1] = 0.0
    return RadialField(grid=grid, values=vals)


def _mirror_levels(op: RadialDiracOperator, lam: np.ndarray,
                   window: Tuple[float, float]) -> Optional[np.ndarray]:
    """The levels of `op` in `window` (lo, hi], ascending, each bisected in
    its own window of half-width PARTNER_RTOL*m around one -lam; None where
    that is not certified.

    The small windows must be disjoint, lie in (lo, hi] and hold one level
    each, and one count over (lo, hi] (`window_count`) must find as many
    levels as lam holds: then they are all of op's levels there."""
    half = PARTNER_RTOL * op.m
    lo, hi = window
    centres = np.sort(-lam)
    if centres.size and not (lo <= centres[0] - half
                             and centres[-1] + half <= hi
                             and np.all(np.diff(centres) > 2.0 * half)):
        return None
    counted = window_count(op, window)
    if counted is None or counted[0] != lam.size:
        return None
    levels = []
    for c in centres.tolist():
        near = eigen_solve(op, window=(c - half, c + half)).eigenvalues
        if near.size != 1:
            return None
        levels.append(near[0])
    return np.array(levels)


def mirror_pairing(phi: RadialField, g: float,
                   m: float) -> Tuple[float, float, int]:
    """(max pair error, min |lambda|, count) over the eigenvalues of both
    sectors in the window +-0.99 m; min |lambda| is inf when there are none.

    The ansatz sector is bisected over the whole window, the partner only
    near the mirror images of its levels (`_mirror_levels`), or over the
    whole window where that is not certified."""
    w = 0.99 * m
    lam = eigen_solve(assemble_hamiltonian(phi, g, m, sector=-1),
                      window=(-w, w)).eigenvalues
    partner = assemble_hamiltonian(phi, g, m, sector=+1)
    mirror = _mirror_levels(partner, lam, (-w, w))
    if mirror is None:
        mirror = eigen_solve(partner, window=(-w, w)).eigenvalues
    both = np.concatenate([lam, mirror])
    pair = max((float(np.min(np.abs(both + lam))) for lam in both),
               default=0.0)
    gap = float(np.min(np.abs(both))) if both.size else math.inf
    return pair, gap, both.size


def supercharge_svd_error(phi: RadialField, g: float, m: float) -> float:
    """max |sv - |eig||, supercharge singular values vs the sorted moduli
    of the full ansatz-sector spectrum (tridiagonal root-free QR, sterf)."""
    op = assemble_hamiltonian(phi, g, m)
    lam = eigvalsh_tridiagonal(op.diag, op.offdiag, lapack_driver="sterf")
    sv = supercharge_singular_values(op)
    return float(np.max(np.abs(np.sort(np.abs(lam)) - sv)))


def hf_mismatch(phi: RadialField, g: float, m: float,
                directions: Sequence[RadialField]) -> Optional[float]:
    """Worst relative |HF - FD| of the ground level over the directions, FD
    the Richardson extrapolation (4 D(t/2) - D(t))/3, error O(t^4), of the
    centered differences D at t = 1e-3 on the nearest level; None when phi
    binds none."""
    res = eigen_solve(assemble_hamiltonian(phi, g, m))
    if res.ladder.size == 0:
        return None
    lam0 = float(res.ladder[0])

    def level(d, s):
        # the shift moves each level by at most g |s| max|d| (Weyl), so a
        # window twice that wide, padded for rounding, holds the nearest one
        reach = 2.0 * g * abs(s) * float(np.max(np.abs(d.values))) + 1e-8 * m
        shifted = RadialField(grid=phi.grid, values=phi.values + s * d.values)
        ev = eigen_solve(assemble_hamiltonian(shifted, g, m),
                         (lam0 - reach, lam0 + reach)).eigenvalues
        return float(ev[np.argmin(np.abs(ev - lam0))])

    worst = 0.0
    for d in directions:
        hf = hellmann_feynman(res, 1, d)
        coarse, fine = ((level(d, t) - level(d, -t)) / (2.0 * t)
                        for t in (1e-3, 5e-4))
        fd = (4.0 * fine - coarse) / 3.0
        worst = max(worst, abs(hf - fd) / max(abs(fd), 1e-12))
    return worst


def oracle_gap(problem: TwoZoneProblem, n: int,
               r_max: float) -> Optional[float]:
    """|matrix - matching| ground level of the square well (g = 1,
    m = mu_out) on an n-cell grid of radius r_max; inf when the matrix
    misses it, None when the closed-form level is missing or above
    0.97 mu_out (near-threshold tails exceed any truncation radius).

    The matrix is bisected over (0, lam + ORACLE_RTOL mu_out] of the
    closed-form lam, the only levels the check can pass on: the lowest
    there is the ground level.  Where that window holds none, the whole
    bound window is bisected, so the gap is the same."""
    lams = eigenvalues(problem, 1)
    mu_out = problem.mu_out
    if not lams or lams[0] > 0.97 * mu_out:
        return None
    phi = square_well(make_grid(r_max, n), mu_out - problem.mu_in, problem.R)
    # the positive part of the default window holds the ladder
    op = assemble_hamiltonian(phi, g=1.0, m=mu_out)
    lo, hi = bound_window(mu_out)
    near = min(hi, lams[0] + ORACLE_RTOL * mu_out)
    ladder = eigen_solve(op, window=(lo, near)).eigenvalues
    if ladder.size == 0:
        ladder = eigen_solve(op, window=(lo, hi)).eigenvalues
    if ladder.size == 0:
        return math.inf
    return abs(float(ladder[0]) - lams[0])


def cavity_reference_root() -> float:
    """Massless confined ground frequency from an independent bisection of
    tan(x) = x/(1-x), the massless form of j1(x) = j0(x)."""
    f = lambda x: math.tan(x) - x / (1.0 - x)
    lo, hi = 2.0, 2.2
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def cavity_shape(Rs) -> Tuple[bool, bool]:
    """(decreasing, midpoint-convex) for R -> lam_1(R) at m = 1 over Rs."""
    lam = np.array([mit_eigenvalue(R, 1.0, 1) for R in Rs])
    decreasing = bool(np.all(np.diff(lam) < 0.0))
    convex = bool(np.all(lam[:-2] + lam[2:] - 2.0 * lam[1:-1] >= -1e-8))
    return decreasing, convex


def normalization_errors(phi: RadialField, g: float,
                         m: float) -> Optional[Tuple[float, float, float]]:
    """(|norm - 1|, Gram deviation, density at r = 0) of the ground state
    under the grid metric; None when phi binds no state."""
    res = eigen_solve(assemble_hamiltonian(phi, g, m))
    if res.ladder.size == 0:
        return None
    psi = res.ladder_spinors([1])[0]
    return (abs(psi.norm_sq() - 1.0), res.gram_deviation(),
            float(density(psi).values[0]))


def check_susy_pairing(seed: int = 0) -> Check:
    """Spectrum of the full symmetric subspace is mirror-symmetric about 0
    and gapped away from 0 while the effective mass stays nonnegative."""
    rng = np.random.default_rng(seed)
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 900)
    worst_pair, worst_gap = 0.0, math.inf
    for _ in range(5):
        phi = random_bound_field(grid, m, g, rng)
        pair, gap, _ = mirror_pairing(phi, g, m)
        worst_pair, worst_gap = max(worst_pair, pair), min(worst_gap, gap)
    ok = worst_pair <= 1e-8 and worst_gap >= 1e-2 * m
    return ("susy-pairing", ok,
            f"max pair error {worst_pair:.2e}, min |lambda| {worst_gap:.3f}")


def check_supercharge_svd(seed: int = 1) -> Check:
    """Singular values of the supercharge block equal |eigenvalues| of the
    ansatz sector: the operator form of the positive-ladder formula."""
    rng = np.random.default_rng(seed)
    m, g = 1.0, 0.5
    phi = random_bound_field(make_grid(20.0, 400), m, g, rng)
    err = supercharge_svd_error(phi, g, m)
    return ("supercharge-svd", err <= 1e-8, f"max |sv - |eig|| = {err:.2e}")


def check_hellmann_feynman(seed: int = 2) -> Check:
    """First-order eigenvalue response along random directions matches a
    Richardson-extrapolated centered difference of the assembled problem to
    1e-4 relative."""
    rng = np.random.default_rng(seed)
    m, g, r_max = 1.0, 1.0, 25.0
    grid = make_grid(r_max, 1200)
    phi = random_bound_field(grid, m, g, rng, depth=0.9)
    directions = [gaussian_field(grid, rng.uniform(0.2 * r_max, 0.6 * r_max),
                                 rng.uniform(0.05, 0.15) * r_max)
                  for _ in range(3)]
    worst = hf_mismatch(phi, g, m, directions)
    if worst is None:
        return ("hellmann-feynman", False, "no bound state in test well")
    return ("hellmann-feynman", worst <= 1e-4,
            f"max relative mismatch {worst:.2e}")


def check_oracle_agreement(seed: int = 3) -> Check:
    """Square-well ground levels: matrix eigensolver vs closed-form matching."""
    rng = np.random.default_rng(seed)
    mu_out = 1.0
    worst = 0.0
    done = 0
    while done < 5:
        mu_in = rng.uniform(0.0, 0.9 * mu_out)
        R = rng.uniform(1.0, 10.0) / mu_out
        gap = oracle_gap(TwoZoneProblem(mu_in=mu_in, mu_out=mu_out, R=R),
                         4000, R + 18.0 / mu_out)
        if gap is None:
            continue
        if gap == math.inf:
            return ("oracle-agreement", False, "matrix missed a bound state")
        worst = max(worst, gap)
        done += 1
    ok = worst <= ORACLE_RTOL * mu_out
    return ("oracle-agreement", ok, f"max |matrix - matching| = {worst:.2e}")


def check_cavity_root() -> Check:
    """Massless confined cavity frequency against an independent bisection
    of tan(x) = x/(1-x)."""
    x_ref = cavity_reference_root()
    lam = mit_eigenvalue(1.0, 1e-8, 1)
    ok = abs(lam - x_ref) <= 1e-6
    return ("cavity-ground-root", ok, f"lam={lam:.8f} vs x_ref={x_ref:.8f}")


def check_cavity_shape() -> Check:
    """R -> lam_1(R) decreasing and midpoint-convex on a log grid."""
    decreasing, convex = cavity_shape(np.geomspace(0.2, 20.0, 50))
    ok = decreasing and convex
    return ("cavity-shape", ok, f"decreasing={decreasing} convex={convex}")


def check_density_normalization(seed: int = 4) -> Check:
    """Eigenstates from the solver are unit-normalized under the grid metric."""
    rng = np.random.default_rng(seed)
    grid = make_grid(25.0, 1000)
    phi = random_bound_field(grid, 1.0, 1.0, rng, depth=0.95)
    errs = normalization_errors(phi, 1.0, 1.0)
    if errs is None:
        return ("normalization", False, "no bound state in test well")
    err, gram, rho0 = errs
    ok = err <= 1e-8 and gram <= 1e-8 and math.isfinite(rho0)
    return ("normalization", ok, f"|norm-1|={err:.2e}, gram dev={gram:.2e}")


def run_battery(seed: int = 0) -> List[Check]:
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got seed={seed}")
    return [
        check_susy_pairing(seed=seed),
        check_supercharge_svd(seed=seed + 1),
        check_hellmann_feynman(seed=seed + 2),
        check_oracle_agreement(seed=seed + 3),
        check_cavity_root(),
        check_cavity_shape(),
        check_density_normalization(seed=seed + 4),
    ]
