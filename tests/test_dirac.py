import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, eigvalsh_tridiagonal

from bagforge import dirac
from bagforge.grid import FOUR_PI
from bagforge import (DegenerateEigenvalueError, GammaSweep, ModelParams,
                      PotentialSpec, RadialField, RadialSpinor, SolitonConfig,
                      TwoZoneProblem, assemble_hamiltonian, density,
                      dirichlet_ball_eigenvalue, eigen_solve,
                      hellmann_feynman, integrate, make_grid, minimize,
                      run_sweep, supercharge_singular_values)
from bagforge.verify import (check_hellmann_feynman, gaussian_field,
                             hf_mismatch, mirror_pairing,
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
    for u, v in ((np.zeros(63), np.zeros(64)), (np.zeros(64), np.zeros(65))):
        with pytest.raises(ValueError, match="node families"):
            RadialSpinor(grid=grid, u=u, v=v)
    zero = RadialField.zero(grid)
    for m in (0.0, -1.0):
        with pytest.raises(ValueError, match="mass must be positive"):
            assemble_hamiltonian(zero, g=1.0, m=m)
    with pytest.raises(ValueError, match="sector must be"):
        assemble_hamiltonian(zero, g=1.0, m=1.0, sector=0)
    partner_op = assemble_hamiltonian(zero, 1.0, 1.0, sector=+1)
    partner = eigen_solve(partner_op)
    with pytest.raises(ValueError, match="ansatz sector"):
        partner.spinor(0)
    with pytest.raises(ValueError, match="ansatz sector"):
        supercharge_singular_values(partner_op)


def test_grid_mismatch_rejected():
    """A simple bound ground level of a solve on g1 passes every other
    check, so only the grid comparison can refuse a direction living on a
    grid with another r_max or another cell count."""
    g1 = make_grid(10.0, 64)
    res = eigen_solve(assemble_hamiltonian(square_well(g1, 1.0, 4.0),
                                           g=1.0, m=1.0))
    bump = lambda grid: gaussian_field(grid, 2.0, 1.0)
    assert math.isfinite(hellmann_feynman(res, 1, bump(g1)))
    for other in (make_grid(12.0, 64), make_grid(10.0, 65)):
        with pytest.raises(ValueError, match="different grids"):
            hellmann_feynman(res, 1, bump(other))


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


def _per_call_bands(phi, g, m, sector):
    """The bands, Gershgorin radii and stebz pivot floor as the assembly and
    the resumed bisection computed them on every call, before the
    field-independent ones were cached per grid."""
    grid = phi.grid
    n = grid.n
    rp = grid.r_primal[:n - 1]
    rs = grid.r_staggered[1:]
    h = grid.h
    mu_p = m + g * phi.values[:n - 1]
    mu_s = m + g * (0.5 * (phi.values[:-1] + phi.values[1:]))
    nd = n - 1
    diag = np.empty(2 * nd)
    off = np.empty(2 * nd - 1)
    weights = np.empty(2 * nd)
    off[0::2] = rs / (h * rp)
    off[1::2] = -rs[:-1] / (h * rp[1:])
    weights[0::2] = h * rp**2
    weights[1::2] = h * rs**2
    diag[0::2] = -sector * mu_p
    diag[1::2] = sector * mu_s
    ae = np.abs(off)
    radius = np.append(ae, 0.0)
    radius[1:] += ae
    pivmin = np.finfo(float).tiny * max(1.0, float(np.max(off * off)))
    return diag, off, weights, radius, pivmin


@pytest.mark.parametrize("n", [16, 640, 1600])
@pytest.mark.parametrize("sector", [-1, +1])
def test_assembly_bands_equal_the_per_call_expressions(n, sector):
    # the cached field-independent arrays and the field-dependent diagonal
    # hold the bits the per-call assembly computed
    grid = make_grid(20.0, n)
    m, g = 1.0, 10.0
    for phi in (gaussian_field(grid, 2.0, 1.5, height=-0.09),
                square_well(grid, 0.05, 3.0), RadialField.zero(grid)):
        op = assemble_hamiltonian(phi, g=g, m=m, sector=sector)
        diag, off, weights, radius, pivmin = _per_call_bands(phi, g, m,
                                                             sector)
        assert np.array_equal(op.diag, diag)
        assert np.array_equal(op.offdiag, off)
        assert np.array_equal(op.weights, weights)
        assert np.array_equal(op.radii, radius)
        assert op.pivmin == pivmin


def test_operator_arrays_are_shared_per_grid_and_refuse_assignment():
    grid = make_grid(20.0, 64)
    ops = [assemble_hamiltonian(gaussian_field(grid, 2.0, 1.0, h), g=1.0,
                                m=1.0, sector=s)
           for h, s in ((-0.5, -1), (-0.2, +1))]
    for name in ("offdiag", "weights", "radii"):
        assert getattr(ops[0], name) is getattr(ops[1], name)
        with pytest.raises(ValueError, match="read-only"):
            getattr(ops[0], name)[0] = 0.0
    # another grid of the same size gets its own arrays
    other = assemble_hamiltonian(RadialField.zero(make_grid(10.0, 64)),
                                 g=1.0, m=1.0)
    assert not np.array_equal(other.offdiag, ops[0].offdiag)


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


def test_supercharge_singular_values_match_moduli(monkeypatch):
    # the check assembles one operator, whose spectrum and supercharge it
    # compares
    from bagforge import verify
    rng = np.random.default_rng(3)
    m, g = 1.0, 0.8
    grid = make_grid(18.0, 300)
    phi = random_bound_field(grid, m, g, rng)
    built = []
    for module in (dirac, verify):
        monkeypatch.setattr(module, "assemble_hamiltonian",
                            lambda *a: built.append(a)
                            or assemble_hamiltonian(*a))
    assert supercharge_svd_error(phi, g, m) <= 1e-10
    assert len(built) == 1


def test_supercharge_band_solve_matches_dense_oracle():
    # the banded Gram solve against a dense SVD of the supercharge
    # built from the dense operator (u-columns negated), and the sterf
    # moduli of supercharge_svd_error against a dense eigensolve
    m, g = 1.0, 0.5
    grid = make_grid(18.0, 150)
    for seed in range(3):
        phi = random_bound_field(grid, m, g, np.random.default_rng(seed))
        op = assemble_hamiltonian(phi, g, m)
        H = op.dense()
        signs = np.where(np.arange(op.size) % 2 == 0, 1.0, -1.0)
        sv = np.sort(np.linalg.svd(H * signs[None, :], compute_uv=False))
        band_sv = supercharge_singular_values(op)
        assert band_sv.shape == sv.shape
        assert np.max(np.abs(band_sv - sv)) <= 1e-12
        lam = eigvalsh_tridiagonal(op.diag, op.offdiag, lapack_driver="sterf")
        assert np.max(np.abs(lam - np.linalg.eigvalsh(H))) <= 1e-12


def test_supercharge_singular_values_at_battery_size():
    # the grid of the verify check: the Gram solve's error grows like
    # ||R||^2 / sigma_min, so it is largest on the finest grid it sees
    m, g = 1.0, 0.5
    grid = make_grid(20.0, 400)
    for seed in (1, 2, 3):
        phi = random_bound_field(grid, m, g, np.random.default_rng(seed))
        op = assemble_hamiltonian(phi, g, m)
        signs = np.where(np.arange(op.size) % 2 == 0, 1.0, -1.0)
        sv = np.sort(np.linalg.svd(op.dense() * signs[None, :],
                                   compute_uv=False))
        assert np.max(np.abs(supercharge_singular_values(op) - sv)) <= 1e-11


@pytest.mark.parametrize("sector", [-1, +1])
def test_eigen_solve_bit_equal_to_scipy(sector):
    # the bisection at call and the inverse iteration on first read give the
    # pairs of eigh_tridiagonal(select="v") bit for bit, mapped to grid
    # normalization as before, and the values of eigvalsh_tridiagonal; the
    # last window holds no level, and an empty one is refused
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 900)
    for seed in range(3):
        phi = random_bound_field(grid, m, g, np.random.default_rng(seed))
        op = assemble_hamiltonian(phi, g, m, sector=sector)
        counts = []
        for window in ((-0.99, 0.99), (0.0, 0.8), (-0.9, -0.1),
                       (-1e-3, 1e-3)):
            lam, y = eigh_tridiagonal(op.diag, op.offdiag, select="v",
                                      select_range=window)
            res = eigen_solve(op, window)
            assert res.eigenvalues.tobytes() == lam.tobytes()
            x = y / np.sqrt(op.weights)[:, None] / math.sqrt(4.0 * math.pi)
            assert res.vectors.shape == x.shape
            assert res.vectors.tobytes() == x.tobytes()
            values_only = eigvalsh_tridiagonal(op.diag, op.offdiag,
                                               select="v", select_range=window)
            assert res.eigenvalues.tobytes() == values_only.tobytes()
            counts.append(lam.size)
        assert min(counts[:3]) > 0 and counts[3] == 0
    with pytest.raises(ValueError, match="empty window"):
        eigen_solve(op, (0.5, 0.5))


def _warm_pair(size=1e-3, seed=0, sector=-1, window=None, n=300, r_max=25.0):
    """(warm result at a random well, operator at the perturbed well)."""
    m, g = 1.0, 0.5
    grid = make_grid(r_max, n)
    rng = np.random.default_rng(seed)
    phi = random_bound_field(grid, m, g, rng, depth=0.9)
    bump = gaussian_field(grid, rng.uniform(0.0, 10.0), rng.uniform(0.5, 5.0))
    warm = eigen_solve(assemble_hamiltonian(phi, g, m, sector), window)
    moved = RadialField(grid=grid, values=phi.values + size * bump.values)
    return warm, assemble_hamiltonian(moved, g, m, sector)


def _same_bits(res, cold):
    return (res.window == cold.window
            and res.eigenvalues.tobytes() == cold.eigenvalues.tobytes()
            and res.vectors.tobytes() == cold.vectors.tobytes()
            and res.residual == cold.residual)


def test_warm_solve_bit_equal_to_cold():
    # resumed or refused, a warm solve gives the cold solve's values,
    # inverse-iteration vectors and residual byte for byte; the warm result's
    # vectors are read before the warm solve or by it, and the window is the
    # descent's or the default one
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    starts = []

    @hyp.settings(derandomize=True, max_examples=60, deadline=None)
    @hyp.example(seed=0, size=0.0, sector=-1, read=True, window=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), size=st.floats(1e-9, 0.3),
               sector=st.sampled_from([-1, 1]), read=st.booleans(),
               window=st.sampled_from([None, (0.0, 1.0 - dirac.WINDOW_SHAVE)]))
    def check(seed, size, sector, read, window):
        warm, op = _warm_pair(size, seed, sector, window)
        if read:
            warm.vectors
        res = eigen_solve(op, window, warm=warm)
        assert _same_bits(res, eigen_solve(op, window))
        starts.append(res.start)

    check()
    # large perturbations move levels across the window ends, so only most
    # of the draws resume
    assert set(starts) <= {"resumed", "fallback"}
    assert starts.count("resumed") >= len(starts) // 2


def _cold_prefix(op, window, j):
    """The cold solve and its lowest j levels as a result: stein on the
    first j values of the full bisection, whose order is ascending."""
    cold = eigen_solve(op, window)
    w, iblock, isplit, _ = cold.bisection
    prefix = dataclasses.replace(cold, eigenvalues=cold.eigenvalues[:j],
                                 bisection=(w[:j], iblock, isplit,
                                            np.arange(j)))
    return cold, prefix


def test_partial_warm_solve_bit_equal_to_cold_prefix():
    # asked for the lowest `levels` levels, a warm solve gives the values,
    # vectors and residual of the cold solve's lowest ones byte for byte,
    # from a complete or a partial warm result, read or not; a partial
    # result holds exactly `levels` levels, and the cold solve's next level
    # lies more than the simplicity gap past the last held one
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    window = (0.0, 1.0 - dirac.WINDOW_SHAVE)
    seen = {"partial": 0, "complete": 0, "partial warm": 0}

    @hyp.settings(derandomize=True, max_examples=60, deadline=None)
    @hyp.given(seed=st.integers(0, 2**32 - 1), size=st.floats(1e-9, 0.1),
               levels=st.integers(1, 6), read=st.booleans())
    def check(seed, size, levels, read):
        # two steps along a random bump: the second resumes from the first
        m, g = 1.0, 0.5
        grid = make_grid(25.0, 300)
        rng = np.random.default_rng(seed)
        phi = random_bound_field(grid, m, g, rng, depth=0.9)
        bump = gaussian_field(grid, rng.uniform(0.0, 10.0),
                              rng.uniform(0.5, 5.0))
        warm = eigen_solve(assemble_hamiltonian(phi, g, m), window)
        for step in (1, 2):
            op = assemble_hamiltonian(RadialField(
                grid=grid, values=phi.values + step * size * bump.values),
                g, m)
            if read:
                warm.vectors
            res = eigen_solve(op, window, warm=warm, levels=levels)
            j = res.eigenvalues.size
            cold, prefix = _cold_prefix(op, window, j)
            assert res.eigenvalues.tobytes() == prefix.eigenvalues.tobytes()
            assert res.vectors.tobytes() == cold.vectors[:, :j].tobytes()
            assert res.vectors.tobytes() == prefix.vectors.tobytes()
            assert res.residual == prefix.residual <= cold.residual
            if res.complete:
                assert j == cold.eigenvalues.size
                seen["complete"] += 1
            else:
                assert res.start == "resumed" and j == levels
                gap = dirac.SIMPLE_GAP_RTOL * m
                assert (j == cold.eigenvalues.size
                        or cold.eigenvalues[j - 1] + gap < cold.eigenvalues[j])
                seen["partial"] += 1
                seen["partial warm"] += int(not warm.complete)
            warm = res

    check()
    assert min(seen.values()) > 0, seen


def test_descent_warm_solves_bit_equal_to_cold_prefix(monkeypatch):
    # every warm solve of real descents gives the values, vectors and
    # residual of the cold solve's lowest levels byte for byte: the README
    # soliton with its ground and its excited ladder at n = 400, and a
    # two-width README gamma-sweep at n = 320
    from bagforge import descent
    solve = descent.eigen_solve
    starts = []

    def eigen_solve(op, window=None, warm=None, levels=None):
        res = solve(op, window, warm, levels)
        if warm is not None:
            j = res.eigenvalues.size
            cold, prefix = _cold_prefix(op, window, j)
            assert res.eigenvalues.tobytes() == prefix.eigenvalues.tobytes()
            assert res.vectors.tobytes() == prefix.vectors.tobytes()
            assert res.residual == prefix.residual
            assert j == cold.eigenvalues.size or not res.complete
            starts.append(res.start)
        return res

    monkeypatch.setattr(descent, "eigen_solve", eigen_solve)
    for ks in ((1,), (1, 1, 2)):
        cfg = SolitonConfig(
            model=ModelParams(n_quarks=len(ks), g=10.0, m=1.0, k_indices=ks),
            potential=PotentialSpec(kappa=0.05, b=0.01), r_max=20.0, n=400)
        assert minimize(cfg).converged
    sweep = GammaSweep(eps_schedule=[0.4, 0.2],
                       potential=PotentialSpec(kappa=1.0, b=0.02),
                       n_quarks=1, g=6.8, m=8.0, r_max=3.0, n=320)
    assert all(row.converged for row in run_sweep(sweep).rows)
    assert len(starts) > 300 and starts.count("resumed") > 0.9 * len(starts)


def test_next_level_within_the_simplicity_gap_forces_the_full_bisection(
        monkeypatch):
    # a partial result must prove the next level farther than the
    # simplicity gap; where it is not, the full bisection runs and the
    # result holds the whole window, as without `levels`
    window = (0.0, 1.0 - dirac.WINDOW_SHAVE)
    warm, op = _warm_pair(window=window)
    cold = eigen_solve(op, window)
    lam = cold.eigenvalues
    assert lam.size >= 2
    gap = float(lam[1] - lam[0]) / op.m
    for rtol, start, held in ((1.01 * gap, "fallback", lam.size),
                              (0.99 * gap, "resumed", 1)):
        monkeypatch.setattr(dirac, "SIMPLE_GAP_RTOL", rtol)
        res = eigen_solve(op, window, warm=warm, levels=1)
        assert res.start == start and res.eigenvalues.size == held
        assert res.eigenvalues.tobytes() == lam[:held].tobytes()
        assert res.complete == (held == lam.size)


def test_enclosure_holding_the_window_midpoint_falls_back(monkeypatch):
    # the lowest level sits at the window's midpoint, inside its
    # enclosure: its node is the whole window, so the full bisection runs,
    # with no Sturm count spent on the way
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 300)
    rng = np.random.default_rng(0)
    phi = random_bound_field(grid, m, g, rng, depth=0.9)
    bump = gaussian_field(grid, 5.0, 2.0)
    op = assemble_hamiltonian(
        RadialField(grid=grid, values=phi.values + 1e-3 * bump.values), g, m)
    window = (0.0, 2.0 * float(eigen_solve(op).ladder[0]))
    warm = eigen_solve(assemble_hamiltonian(phi, g, m), window)
    warm.vectors
    mid = 0.5 * (window[0] + window[1])
    lower, upper = dirac._enclosures(op, warm)
    assert lower[0] < mid < upper[0]
    counts = []
    stebz = dirac.dstebz

    def counted(d, e, rng, vl, vu, il, iu, tol, order):
        counts.append(tol > 0.0)
        return stebz(d, e, rng, vl, vu, il, iu, tol, order)

    monkeypatch.setattr(dirac, "dstebz", counted)
    res = eigen_solve(op, window, warm=warm)
    assert res.start == "fallback" and counts == [False]
    assert _same_bits(res, eigen_solve(op, window))


@pytest.mark.parametrize("wrong", [
    lambda lo, hi: (lo + 0.05, hi + 0.05),        # beside every level
    lambda lo, hi: (lo[::-1], hi[::-1]),          # levels swapped
    lambda lo, hi: (np.full_like(lo, lo.min()),   # one interval for all
                    np.full_like(hi, hi.max())),
    lambda lo, hi: (np.full_like(lo, lo[0]),      # all at the first level
                    np.full_like(hi, hi[0])),
    lambda lo, hi: (hi + 1.0, lo - 1.0),          # inverted
    lambda lo, hi: (lo * np.nan, hi * np.nan),
])
def test_wrong_enclosures_fall_back_with_the_same_bits(monkeypatch, wrong):
    enclosures = dirac._enclosures
    monkeypatch.setattr(dirac, "_enclosures",
                        lambda op, warm, j: wrong(*enclosures(op, warm, j)))
    for read in (False, True):
        warm, op = _warm_pair()
        if read:
            warm.vectors
        assert warm.eigenvalues.size >= 2
        res = eigen_solve(op, warm=warm)
        assert res.start == "fallback"
        assert _same_bits(res, eigen_solve(op))


def test_level_across_the_window_edge_falls_back():
    # the top level sits just inside the window at the warm field and
    # leaves it when the well gets shallower, then comes back
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 300)
    phi = random_bound_field(grid, m, g, np.random.default_rng(3), depth=0.9)
    top = float(eigen_solve(assemble_hamiltonian(phi, g, m)).ladder[-1])
    window = (0.0, top + 1e-4)
    ops = [assemble_hamiltonian(RadialField(grid=grid, values=s * phi.values),
                                g, m) for s in (1.0, 0.99, 1.0)]
    solves = [eigen_solve(ops[0], window)]
    for op in ops[1:]:
        res = eigen_solve(op, window, warm=solves[-1])
        cold = eigen_solve(op, window)
        assert cold.eigenvalues.size != solves[-1].eigenvalues.size
        assert res.start == "fallback" and _same_bits(res, cold)
        solves.append(res)


def test_window_past_the_gershgorin_bound_falls_back():
    # stebz clips such a window to the Gershgorin interval before it
    # bisects, so the window ends are not the ends of its midpoint tree
    warm, op = _warm_pair(window=(0.0, 100.0))
    assert float(np.max(op.diag) + 2 * np.max(np.abs(op.offdiag))) < 100.0
    warm.vectors
    res = eigen_solve(op, (0.0, 100.0), warm=warm)
    assert res.start == "fallback"
    assert _same_bits(res, eigen_solve(op, (0.0, 100.0)))


def test_empty_window_falls_back():
    for window in ((0.999, 0.9999), (-1e-3, 1e-3)):
        warm, op = _warm_pair(window=window)
        assert warm.eigenvalues.size == 0
        res = eigen_solve(op, window, warm=warm)
        assert res.start == "fallback"
        assert _same_bits(res, eigen_solve(op, window))
    with pytest.raises(ValueError, match="empty window"):
        eigen_solve(op, (0.5, 0.5), warm=warm)


def test_warm_solve_leaves_its_own_vectors_unread(monkeypatch):
    # the enclosures read the warm result's vectors (inverse iteration runs
    # there if it has not), never the new result's
    calls = []
    stein = dirac.dstein
    monkeypatch.setattr(dirac, "dstein",
                        lambda *args: calls.append(1) or stein(*args))
    for read in (True, False):
        warm, op = _warm_pair()
        if read:
            warm.vectors
        calls.clear()
        res = eigen_solve(op, warm=warm)
        assert res.start == "resumed" and len(calls) == int(not read)
        assert "_pairs" in vars(warm) and "_pairs" not in vars(res)


def test_ladder_levels_count_from_one():
    # an index below 1 would wrap around to the top of the ladder: on this
    # well level 0 would be level 2, and its simplicity check that level's
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 400)
    res = eigen_solve(assemble_hamiltonian(square_well(grid, 1.0, 5.0), g, m))
    assert res.ladder.size == 2
    for k in (0, -1):
        with pytest.raises(ValueError, match="count from 1"):
            res.ladder_spinors([k])
        with pytest.raises(ValueError, match="count from 1"):
            res.check_simple([1, k])
    res.check_simple([1, 2, 3])
    assert res.ladder_spinors([3]) == [None]


def test_warm_result_must_match():
    warm, op = _warm_pair()
    other, _ = _warm_pair(sector=+1)
    coarse, _ = _warm_pair(n=200)
    # the same n and so the same operator size, on a wider mesh
    wider, _ = _warm_pair(r_max=26.0)
    for bad, window in ((other, None), (coarse, None), (wider, None),
                        (warm, (0.0, 0.9))):
        with pytest.raises(ValueError, match="warm result"):
            eigen_solve(op, window, warm=bad)
    # a level count it cannot honour is refused before any work, warm or
    # cold, naming it
    for levels in (0, -1, 1.0):
        for start in (warm, None):
            with pytest.raises(ValueError, match=f"got {levels!r}"):
                eigen_solve(op, warm=start, levels=levels)


def test_inverse_iteration_runs_once_on_first_read(monkeypatch):
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 900)
    phi = random_bound_field(grid, m, g, np.random.default_rng(0))
    op = assemble_hamiltonian(phi, g, m)
    calls = []
    stein = dirac.dstein

    def counted(*args):
        calls.append(1)
        return stein(*args)

    monkeypatch.setattr(dirac, "dstein", counted)
    res = eigen_solve(op)
    assert res.eigenvalues.size > 0 and not calls
    first = res.vectors
    assert res.residual <= 1e-8 and res.vectors is first
    res.ladder_spinors([1])
    assert res.gram_deviation() <= 1e-8
    assert len(calls) == 1


def test_residual_certificate_on_first_read(monkeypatch):
    m, g = 1.0, 0.5
    grid = make_grid(25.0, 900)
    phi = random_bound_field(grid, m, g, np.random.default_rng(1))
    op = assemble_hamiltonian(phi, g, m)
    stein = dirac.dstein

    def perturbed(*args):
        z, info = stein(*args)
        z[0] += 1e-3
        return z, info

    monkeypatch.setattr(dirac, "dstein", perturbed)
    res = eigen_solve(op)
    for attr in ("vectors", "residual"):
        with pytest.raises(RuntimeError, match="residual"):
            getattr(res, attr)


def test_nonfinite_operator_rejected_like_scipy():
    grid = make_grid(25.0, 200)
    op = assemble_hamiltonian(RadialField.zero(grid), 1.0, 1.0)
    for band in ("diag", "offdiag"):
        bad = getattr(op, band).copy()
        bad[3] = np.nan
        broken = dataclasses.replace(op, **{band: bad})
        with pytest.raises(ValueError):
            eigh_tridiagonal(broken.diag, broken.offdiag, select="v",
                             select_range=(-0.5, 0.5))
        with pytest.raises(ValueError, match="infs or NaNs"):
            eigen_solve(broken)


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


@pytest.mark.parametrize("well", ["square", "random"])
def test_density_partials_match_the_density(well):
    # the descent's gradient form on tridiagonal-basis vectors and the
    # Hellmann-Feynman density of the grid-normalized spinor, node by node
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 400)
    phi = (square_well(grid, 1.0, 5.0) if well == "square" else
           random_bound_field(grid, m, g, np.random.default_rng(0)))
    res = eigen_solve(assemble_hamiltonian(phi, g, m))
    assert res.eigenvalues.size >= 2
    weight = g * FOUR_PI * grid.vol_primal[:-1]
    for i in range(res.eigenvalues.size):
        got = dirac.density_partials(res.basis_vectors[:, i], g)
        want = weight * density(res.spinor(i)).values[:-1]
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


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


def test_hellmann_feynman_check_resolves_a_flat_direction():
    # one direction of this draw moves the ground level by ~3e-7 per unit
    # step, where a plain centered difference at t = 1e-4 is rounding noise
    # (relative mismatch 1.2e-4); the extrapolated difference resolves it
    name, passed, detail = check_hellmann_feynman(seed=1639344096 + 2)
    assert name == "hellmann-feynman" and passed, detail


def _well_solve():
    grid = make_grid(20.0, 400)
    return eigen_solve(assemble_hamiltonian(
        gaussian_field(grid, 2.0, 1.5, -0.9), 1.0, 1.0))


def test_near_degenerate_refusal(monkeypatch):
    # the derivative refuses exactly where the solve's own simplicity test
    # does: nowhere at the default threshold, everywhere at 10 m
    res = _well_solve()
    zero = RadialField.zero(res.operator.grid)
    res.check_simple([1])
    assert math.isfinite(hellmann_feynman(res, 1, zero))
    monkeypatch.setattr(dirac, "SIMPLE_GAP_RTOL", 10.0)
    for read in (lambda: res.check_simple([1]),
                 lambda: hellmann_feynman(res, 1, zero)):
        with pytest.raises(DegenerateEigenvalueError):
            read()


def _criterion_05_case():
    """The field and directions of acceptance criterion 05."""
    rng = np.random.default_rng(11)
    grid = make_grid(25.0, 1500)
    phi = gaussian_field(grid, 2.0, 2.0, -0.95)
    return phi, [gaussian_field(grid, rng.uniform(1.0, 6.0),
                                rng.uniform(0.4, 1.5)) for _ in range(5)]


def _battery_case():
    """The random well and directions of the Hellmann-Feynman check at its
    default seed."""
    rng = np.random.default_rng(2)
    grid = make_grid(25.0, 1200)
    phi = random_bound_field(grid, 1.0, 1.0, rng, depth=0.9)
    return phi, [gaussian_field(grid, rng.uniform(5.0, 15.0),
                                rng.uniform(1.25, 3.75)) for _ in range(3)]


@pytest.mark.parametrize("case", [_criterion_05_case, _battery_case],
                         ids=["criterion-05", "battery-well"])
def test_hellmann_feynman_is_the_solve_state_formula(case):
    # g times the quadrature of direction * density of the solve's own
    # state, bit for bit, for every bound level
    phi, directions = case()
    g = 1.0
    res = eigen_solve(assemble_hamiltonian(phi, g, 1.0))
    assert res.ladder.size >= 1
    for k in range(1, res.ladder.size + 1):
        psi = res.ladder_spinors([k])[0]
        for d in directions:
            want = g * integrate(phi.grid, d.values * density(psi).values,
                                 "primal")
            assert hellmann_feynman(res, k, d) == want


def test_hellmann_feynman_refuses_a_level_a_partial_result_lacks():
    # the README descent's last solve is partial and holds level 1 only:
    # the derivative refuses level 2 as the solve's simplicity test does
    from bagforge.descent import minimize_field
    from bagforge.soliton import initial_guess
    cfg = SolitonConfig(model=ModelParams(n_quarks=1, g=10.0, m=1.0),
                        potential=PotentialSpec(kappa=0.05, b=0.01),
                        r_max=20.0, n=400)
    part = minimize_field(cfg.functional(), initial_guess(cfg),
                          tol=cfg.tol, max_iter=2000).ladder
    assert part.complete is False
    zero = RadialField.zero(part.operator.grid)
    assert math.isfinite(hellmann_feynman(part, 1, zero))
    for read in (lambda: part.check_simple([2]),
                 lambda: hellmann_feynman(part, 2, zero)):
        with pytest.raises(ValueError, match="partial result"):
            read()


def test_hellmann_feynman_refuses_an_unbound_level():
    res = _well_solve()
    k = res.ladder.size + 1
    with pytest.raises(ValueError, match=f"level {k} is not bound"):
        hellmann_feynman(res, k, RadialField.zero(res.operator.grid))


def test_hellmann_feynman_solves_nothing(monkeypatch):
    # the derivative reads the solve it is given: it assembles no operator
    # and runs no eigen-solve
    res = _well_solve()
    calls = []
    for name in ("eigen_solve", "assemble_hamiltonian"):
        monkeypatch.setattr(dirac, name,
                            lambda *a, _name=name, **kw: calls.append(_name))
    hf = hellmann_feynman(res, 1, gaussian_field(res.operator.grid, 2.0, 1.0))
    assert math.isfinite(hf) and calls == []
