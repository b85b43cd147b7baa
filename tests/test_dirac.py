import math

import numpy as np
import pytest

from bagforge import (DegenerateEigenvalueError, RadialField, RadialSpinor,
                      TwoZoneProblem, assemble_hamiltonian, density,
                      dirichlet_ball_eigenvalue, eigen_solve,
                      hellmann_feynman, integrate, make_grid)
from bagforge.verify import (gaussian_field, hf_mismatch, mirror_pairing,
                             normalization_errors, oracle_gap,
                             random_bound_field, square_well,
                             supercharge_svd_error)


# ---------------------------------------------------------------- assembly


def test_field_validation():
    grid = make_grid(10.0, 64)
    with pytest.raises(ValueError):
        RadialField(grid=grid, values=np.ones(64))       # no decay at r_max
    with pytest.raises(ValueError):
        RadialField(grid=grid, values=np.full(64, np.nan))
    with pytest.raises(ValueError):
        RadialField(grid=grid, values=np.zeros(63))


def test_grid_mismatch_rejected():
    g1 = make_grid(10.0, 64)
    g2 = make_grid(12.0, 64)
    phi = RadialField.zero(g1)
    direction = RadialField.zero(g2)
    op = assemble_hamiltonian(phi, g=1.0, m=1.0)
    res = eigen_solve(op, window=(0.0, 0.999))
    psi = RadialSpinor(grid=g1, u=np.zeros(64), v=np.zeros(64))
    with pytest.raises(ValueError):
        hellmann_feynman(phi, (0.5, psi), direction, g=1.0, m=1.0)
    assert res.eigenvalues.size == 0


def test_free_operator_squares_to_radial_laplacians():
    """With phi = 0 the squared operator is block-diagonal: the mimetic
    radial Laplacian plus m^2 on each component (free supersymmetry)."""
    m = 1.0
    grid = make_grid(8.0, 64)
    op = assemble_hamiltonian(RadialField.zero(grid), g=1.0, m=m)
    H = op.dense()
    H2 = H @ H
    nd = grid.n - 1
    rp = grid.r_primal[:nd]
    rs = grid.r_staggered[1:]
    h = grid.h
    # independent assembly of the conservative Laplacians from flux sums
    L0 = np.zeros((nd, nd))      # v-type: -(r^2 v')'/r^2, inner flux zero
    for j in range(nd):
        up = rs[j] ** 2 / (rp[j] ** 2 * h * h)
        L0[j, j] += up
        if j + 1 < nd:
            L0[j, j + 1] -= up
        if j > 0:
            dn = rs[j - 1] ** 2 / (rp[j] ** 2 * h * h)
            L0[j, j] += dn
            L0[j, j - 1] -= dn
    # u-type Laplacian from composing the two independent first-order stencils
    A = np.zeros((nd, nd))
    for j in range(nd):
        A[j, j] = rs[j] ** 2 / (rp[j] ** 2 * h)
        if j > 0:
            A[j, j - 1] = -rs[j - 1] ** 2 / (rp[j] ** 2 * h)
    Adag = np.zeros((nd, nd))
    for k in range(nd):
        Adag[k, k] = 1.0 / h
        if k + 1 < nd:
            Adag[k, k + 1] = -1.0 / h
    L1 = Adag @ A
    # symmetrized blocks of H^2 live at even/odd interleaved positions
    ev = np.arange(0, 2 * nd, 2)
    od = np.arange(1, 2 * nd, 2)
    W = op.weights
    B0 = (np.sqrt(W[ev])[:, None] * L0) / np.sqrt(W[ev])[None, :]
    err_v = np.max(np.abs(H2[np.ix_(ev, ev)] - (B0 + m**2 * np.eye(nd))))
    err_cross = np.max(np.abs(H2[np.ix_(ev, od)]))
    assert err_v <= 1e-8
    assert err_cross <= 1e-12
    # composed stencils also reproduce the v-block: A Adag = L0
    assert np.max(np.abs(A @ Adag - L0)) <= 1e-8
    Hu = H2[np.ix_(od, od)]
    B1 = (np.sqrt(W[od])[:, None] * L1) / np.sqrt(W[od])[None, :]
    assert np.max(np.abs(Hu - (B1 + m**2 * np.eye(nd)))) <= 1e-8


def test_zero_diagonal_inside_cancelled_well():
    # phi = -m/g inside the bag zeroes the interior mass rows
    grid = make_grid(20.0, 200)
    m, g = 1.0, 2.0
    phi = square_well(grid, m / g, R=5.0)
    op = assemble_hamiltonian(phi, g=g, m=m)
    inside_v = grid.r_primal[: grid.n - 1] < 4.5
    assert np.max(np.abs(op.diag[0::2][inside_v])) <= 1e-12


# ---------------------------------------------------------------- spectra


def test_free_spectrum_has_no_bound_states():
    m = 1.0
    grid = make_grid(30.0, 1500)
    op = assemble_hamiltonian(RadialField.zero(grid), g=1.0, m=m)
    res = eigen_solve(op, window=(-m * (1 - 1e-6), m * (1 - 1e-6)))
    assert res.eigenvalues.size == 0
    # band edge: smallest positive eigenvalue of the truncated operator
    # sits essentially at m
    wide = eigen_solve(op, window=(0.0, 2.0 * m))
    assert wide.eigenvalues[0] >= m * (1 - 1e-3)


def test_square_well_matches_dispersion_oracle():
    # depth 1 square well of radius 5 on a 4000-cell grid of radius 25
    gap = oracle_gap(TwoZoneProblem(mu_in=0.0, mu_out=1.0, R=5.0), 4000, 25.0)
    assert gap is not None
    assert gap < 1e-3


def test_mirror_spectrum_across_sectors():
    rng = np.random.default_rng(7)
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 1200)
    for _ in range(3):
        phi = random_bound_field(grid, m, g, rng)
        pair, gap, count = mirror_pairing(phi, g, m)
        assert count > 0
        assert pair <= 1e-8
        # no zero modes while the effective mass stays nonnegative
        assert gap >= 1e-2 * m


def test_single_sector_spectrum_is_not_mirror_symmetric():
    """The ansatz sector alone has an asymmetric point spectrum; only the
    union with the partner sector pairs.  Guards against 'fixing' the
    pairing inside one sector."""
    m, g, R = 1.0, 1.0, 5.0
    grid = make_grid(25.0, 2000)
    phi = square_well(grid, 1.0, R)
    res = eigen_solve(assemble_hamiltonian(phi, g=g, m=m),
                      window=(-0.95, 0.95))
    lam = res.eigenvalues
    worst = max(float(np.min(np.abs(lam + x))) for x in lam)
    assert worst > 1e-2


def test_supercharge_singular_values_match_moduli():
    rng = np.random.default_rng(3)
    m, g = 1.0, 0.8
    grid = make_grid(18.0, 300)
    phi = random_bound_field(grid, m, g, rng)
    assert supercharge_svd_error(phi, g, m) <= 1e-10


def test_orthonormality_and_normalization():
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 2000)
    phi = square_well(grid, 1.0, 5.0)
    # norm_err is |integral of v^2 (primal) + u^2 (staggered) - 1|
    norm_err, gram, _ = normalization_errors(phi, g, m)
    assert gram <= 1e-8
    assert norm_err <= 1e-10


def test_eigenvalue_continuity_in_field():
    m, g = 1.0, 1.0
    lam1 = {}
    for n in (800, 1600):
        grid = make_grid(25.0, n)
        phi = gaussian_field(grid, 2.5, 1.5, -0.9)
        base = eigen_solve(assemble_hamiltonian(phi, g, m)).ladder[0]
        bump = gaussian_field(grid, 2.0, 1.0, 0.02).values
        shifted = RadialField(grid=grid, values=phi.values + bump)
        pert = eigen_solve(assemble_hamiltonian(shifted, g, m)).ladder[0]
        dphi = math.sqrt(integrate(grid, bump**2))
        lam1[n] = abs(pert - base) / dphi
    # Lipschitz ratio stable under refinement
    assert lam1[800] == pytest.approx(lam1[1600], rel=5e-2)
    assert lam1[1600] < 10.0


def test_variational_upper_bound_from_ramp_field():
    """With the ramp field (full depth inside R, linear to zero at R'), any
    state supported in the core costs only its kinetic energy, so the k-th
    positive level is bounded by sqrt(C^k_1)/R up to discretization bias."""
    m, g = 1.0, 8.0
    R = 3.0
    Rp = (1.0 + math.sqrt(3.0)) * R
    grid = make_grid(30.0, 3000)
    r = grid.r_primal
    ramp = np.clip((Rp - r) / (Rp - R), 0.0, 1.0)
    phi = RadialField(grid=grid, values=-(m / g) * ramp)
    res = eigen_solve(assemble_hamiltonian(phi, g=g, m=m))
    for k in (1, 2):
        bound = math.sqrt(dirichlet_ball_eigenvalue(k)) / R
        assert res.ladder.size >= k
        assert res.ladder[k - 1] <= bound + 1e-2


# ---------------------------------------------------------------- density/HF


def test_density_reduces_to_components():
    grid = make_grid(10.0, 128)
    v = np.exp(-grid.r_primal)
    v[-1] = 0.0
    psi = RadialSpinor(grid=grid, u=np.zeros(grid.n), v=v)
    rho = density(psi)
    assert np.allclose(rho.values[:-1], v[:-1] ** 2)
    # u = v pointwise: density vanishes to interpolation accuracy O(h^2)
    u = np.exp(-grid.r_staggered)
    psi2 = RadialSpinor(grid=grid, u=u, v=np.exp(-grid.r_primal) * 0 + v)
    rho2 = density(psi2)
    assert np.max(np.abs(rho2.values[1:-1])) <= 5 * grid.h**2


def test_density_integrates_to_scalar_charge():
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 2000)
    phi = square_well(grid, 1.0, 5.0)
    res = eigen_solve(assemble_hamiltonian(phi, g=g, m=m))
    psi = res.ladder_spinors([1])[0]
    assert psi.norm_sq() == pytest.approx(1.0, abs=1e-8)
    rho = density(psi)
    charge = integrate(grid, rho.values)
    v_part = integrate(grid, psi.v**2)
    u_part = integrate(grid, psi.u**2, "staggered")
    assert charge == pytest.approx(v_part - u_part, abs=1e-10)


def test_hellmann_feynman_against_finite_differences():
    rng = np.random.default_rng(11)
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 1500)
    phi = gaussian_field(grid, 2.0, 2.0, -0.95)
    # zero direction: HF and the centered difference both vanish exactly
    assert hf_mismatch(phi, g, m, [RadialField.zero(grid)]) == 0.0
    # random bumps, and phi itself: d/dt lam((1+t) phi) at t=0
    bumps = [gaussian_field(grid, rng.uniform(1.0, 5.0), 0.8)
             for _ in range(3)]
    assert hf_mismatch(phi, g, m, bumps + [phi]) <= 1e-5


def test_hellmann_feynman_requires_normalized_simple_state():
    grid = make_grid(20.0, 600)
    phi = gaussian_field(grid, 2.0, 1.5, -0.9)
    res = eigen_solve(assemble_hamiltonian(phi, 1.0, 1.0))
    psi = res.ladder_spinors([1])[0]
    lam0 = float(res.ladder[0])
    bad = RadialSpinor(grid=grid, u=2 * psi.u, v=2 * psi.v)
    with pytest.raises(ValueError):
        hellmann_feynman(phi, (lam0, bad), RadialField.zero(grid), 1.0, 1.0)


def test_near_degenerate_refusal():
    grid = make_grid(20.0, 400)
    phi = gaussian_field(grid, 2.0, 1.5, -0.9)
    res = eigen_solve(assemble_hamiltonian(phi, 1.0, 1.0))
    psi = res.ladder_spinors([1])[0]
    lam0 = float(res.ladder[0])
    # shrink the simplicity threshold's meaning by faking a nearby level:
    # solve in a window centered on lam0 +- below-threshold and check the
    # guard path via monkeypatched threshold
    import bagforge.dirac as dirac_mod
    old = dirac_mod.SIMPLE_GAP_RTOL
    dirac_mod.SIMPLE_GAP_RTOL = 10.0       # everything looks degenerate
    try:
        with pytest.raises(DegenerateEigenvalueError):
            hellmann_feynman(phi, (lam0, psi), RadialField.zero(grid),
                             1.0, 1.0)
    finally:
        dirac_mod.SIMPLE_GAP_RTOL = old
