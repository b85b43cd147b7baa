"""Acceptance criteria, one test per criterion, at the stated tolerances.

Run with `pytest tests/test_acceptance.py -s` to see one PASS line per
criterion; any failure surfaces as an ordinary assertion.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal

from bagforge import (BagConfig, GammaSweep, ModelParams, PotentialSpec,
                      SolitonConfig, TwoZoneProblem, dirichlet_ball_eigenvalue,
                      make_grid, minimize, mit_eigenvalue, mit_limit,
                      run_sweep)
from bagforge.cli import main as cli_main
from bagforge.verify import (cavity_reference_root, cavity_shape,
                             gaussian_field, hf_mismatch, mirror_pairing,
                             oracle_gap, random_bound_field)


def report(num, detail):
    print(f"criterion {num:02d} PASS: {detail}")


# -------------------------------------------------------------------------


def test_criterion_01_susy_pairing():
    """20 random smooth wells: mirrored spectrum to 1e-8, no zero modes."""
    t0 = time.time()
    m, g = 1.0, 0.5
    rng = np.random.default_rng(42)
    grid = make_grid(25.0, 1500)
    worst_pair = 0.0
    worst_gap = math.inf
    n_eigs = 0
    for _ in range(20):
        phi = random_bound_field(grid, m, g, rng)
        assert np.min(m + g * phi.values) >= 0.0
        pair, gap, count = mirror_pairing(phi, g, m)
        worst_pair, worst_gap = max(worst_pair, pair), min(worst_gap, gap)
        n_eigs += count
    elapsed = time.time() - t0
    assert n_eigs > 0
    assert worst_pair <= 1e-8
    assert worst_gap >= 1e-2 * m
    assert elapsed <= 60.0
    report(1, f"pair err {worst_pair:.1e}, min |lam| {worst_gap:.3f}, "
              f"{n_eigs} eigenvalues, {elapsed:.1f}s")


def test_criterion_02_oracle_equivalence():
    """20 random two-zone wells at n=4000: matrix vs matching <= 2e-3."""
    t0 = time.time()
    rng = np.random.default_rng(7)
    mu_out = 1.0
    worst = 0.0
    checked = 0
    while checked < 20:
        mu_in = rng.uniform(0.0, 0.9 * mu_out)
        R = rng.uniform(1.0, 10.0) / mu_out
        gap = oracle_gap(TwoZoneProblem(mu_in=mu_in, mu_out=mu_out, R=R),
                         4000, R + 18.0 / mu_out)
        if gap is None:         # near-threshold level, skipped
            continue
        assert gap < math.inf   # the matrix holds the level
        worst = max(worst, gap)
        checked += 1
    elapsed = time.time() - t0
    assert worst <= 2e-3 * mu_out
    assert elapsed <= 120.0
    report(2, f"max |matrix - matching| = {worst:.2e} over 20 wells, "
              f"{elapsed:.1f}s")


def test_criterion_03_massless_cavity_mode():
    """Confined massless ground frequency = 2.0428 +- 1e-3, via an
    independent bisection of j1(x) = j0(x)."""
    t0 = time.time()
    x_ref = cavity_reference_root()
    lam = mit_eigenvalue(1.0, 1e-8, 1)
    elapsed = time.time() - t0
    assert lam == pytest.approx(x_ref, abs=1e-6)
    assert lam == pytest.approx(2.0428, abs=1e-3)
    assert elapsed <= 1.0
    report(3, f"lambda = {lam:.6f} vs bisection {x_ref:.6f}, {elapsed:.2f}s")


def test_criterion_04_hard_wall_limit():
    """Exterior masses 2^n: energies strictly approach the confined value
    and the boundary ratio climbs monotonically to 1 within 5e-3."""
    t0 = time.time()
    cfg = BagConfig(n_quarks=1, g=0.5, m=1.0, a=0.01, b=0.01)
    result = mit_limit(cfg, [2.0**j for j in range(1, 11)])
    gaps = result.energy_gaps()
    assert np.all(np.diff(gaps) < 0.0)
    # rows that bound a state (the weakest wall cannot: pre-threshold)
    bound = [r for r in result.rows if not r.flagged]
    assert len(bound) >= 9
    ratio_err = np.array([abs(r.boundary_ratio - 1.0) for r in bound])
    assert np.all(np.diff(ratio_err) < 0.0)
    assert ratio_err[-1] <= 5e-3
    elapsed = time.time() - t0
    assert elapsed <= 30.0
    report(4, f"gap {gaps[0]:.3f} -> {gaps[-1]:.2e}, |ratio-1| -> "
              f"{ratio_err[-1]:.1e}, {elapsed:.1f}s")


def test_criterion_05_first_order_response():
    """Eigenvalue derivative along 5 random directions matches centered
    finite differences to 1e-4 relative."""
    t0 = time.time()
    rng = np.random.default_rng(11)
    m, g = 1.0, 1.0
    grid = make_grid(25.0, 1500)
    phi = gaussian_field(grid, 2.0, 2.0, -0.95)
    directions = [gaussian_field(grid, rng.uniform(1.0, 6.0),
                                 rng.uniform(0.4, 1.5)) for _ in range(5)]
    worst = hf_mismatch(phi, g, m, directions)
    elapsed = time.time() - t0
    assert worst <= 1e-4
    assert elapsed <= 60.0
    report(5, f"max relative mismatch {worst:.1e} over 5 directions, "
              f"{elapsed:.1f}s")


def test_criterion_06_closed_form_bounds():
    """Kinetic constant pi^2 from the discrete Laplacian; minimal energies
    below the ramp/cavity bounds at every scanned radius; binding at g=10."""
    t0 = time.time()
    # discrete radial Dirichlet Laplacian on the unit ball, n = 2000
    n = 2000
    grid = make_grid(1.0, n)
    nd = n - 1
    rp = grid.r_primal[:nd]
    rs = grid.r_staggered[1:]
    h = grid.h
    stiff = rs**2 / h**2
    diag = np.zeros(nd)
    diag += stiff / rp**2
    diag[1:] += stiff[:-1] / rp[1:] ** 2
    off = -rs[:-1] ** 2 / (h**2 * rp[:-1] * rp[1:])
    c1 = eigh_tridiagonal(diag, off, select="i",
                          select_range=(0, 0))[0][0]
    assert c1 == pytest.approx(math.pi**2, rel=1e-3)
    assert dirichlet_ball_eigenvalue(1) == pytest.approx(math.pi**2,
                                                         rel=1e-12)

    # soliton: minimal energy below the ramp bound f(R) at every scanned R
    m, g, N = 1.0, 10.0, 1
    pot = PotentialSpec(kappa=0.05, b=0.01)
    cfg = SolitonConfig(model=ModelParams(n_quarks=N, g=g, m=m),
                        potential=pot, r_max=20.0, n=800, tol=1e-6)
    rep = minimize(cfg)
    assert rep.converged
    assert rep.energy < N * m          # strict binding at large coupling
    sup_u = float(np.max(pot.u(np.linspace(-m / g, 0.0, 2001))))
    for R in np.linspace(0.5, 6.0, 23):
        f_R = (N * math.sqrt(c1) / R
               + (4 * m**2 * (3 + 2 * math.sqrt(3)) * math.pi / (6 * g**2)) * R
               + (4 * (1 + math.sqrt(3)) ** 3 * math.pi / 3) * sup_u * R**3)
        assert rep.energy <= f_R

    # sharp bag: optimal energy below the cavity bound at every scanned R
    bcfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3)
    from bagforge import bag_energy, minimize_bag
    brep = minimize_bag(bcfg)
    for R in np.geomspace(*bcfg.r_interval, 40):
        bound = (math.sqrt(c1 / R**2 + (bcfg.m - bcfg.g) ** 2)
                 + bcfg.a * 4 * math.pi * R**2
                 + bcfg.b * (4 / 3) * math.pi * R**3)
        assert brep.energy <= bound
        assert brep.energy <= bag_energy(bcfg, R) + 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    report(6, f"C_1 = {c1:.6f} (pi^2 to 0.1%), soliton E = {rep.energy:.4f} "
              f"< {N * m}, bag E = {brep.energy:.4f}, {elapsed:.1f}s")


def test_criterion_07_descent_contract():
    """Monotone accepted energies, EL residual <= 1e-5, bound levels."""
    t0 = time.time()
    cfg = SolitonConfig(model=ModelParams(n_quarks=1, g=10.0, m=1.0),
                        potential=PotentialSpec(kappa=0.05, b=0.01),
                        r_max=20.0, n=800, tol=1e-6)
    rep = minimize(cfg)
    assert rep.converged
    assert all(b <= a + 1e-12 for a, b in zip(rep.history, rep.history[1:]))
    assert rep.el.field <= 1e-5
    assert rep.el.eigen <= 1e-8
    if rep.energy < cfg.model.n_quarks * cfg.model.m:
        assert np.all((rep.lambdas > 0.0) & (rep.lambdas < cfg.model.m))
    elapsed = time.time() - t0
    assert elapsed <= 600.0
    report(7, f"{len(rep.history)} accepted steps, EL residual "
              f"{rep.el.field:.1e}, lambda = {rep.lambdas[0]:.4f}, "
              f"{elapsed:.1f}s")


def test_criterion_08_interface_limit():
    """Diffuse-interface energies approach the sharp bag monotonically with
    resolved interfaces and the cellwise lower bound at every iterate."""
    t0 = time.time()
    sweep = GammaSweep(eps_schedule=[0.4, 0.2, 0.1, 0.05],
                       potential=PotentialSpec(kappa=1.0, b=0.02),
                       n_quarks=1, g=6.8, m=8.0, r_max=3.0, n=640)
    result = run_sweep(sweep)
    assert result.feasible
    assert all(r.converged for r in result.rows)
    gaps = result.gaps()
    assert np.all(np.diff(gaps) < 0.0)
    assert gaps[-1] <= 5e-2 * result.l_c
    for r in result.rows:
        assert 0.5 <= r.interface_width / r.eps <= 5.0
        assert r.liminf_margin >= -1e-10
    assert result.min_inline_liminf >= -1e-10
    elapsed = time.time() - t0
    assert elapsed <= 1200.0
    widths = ", ".join(f"{r.interface_width / r.eps:.2f}" for r in result.rows)
    report(8, f"l_c = {result.l_c:.4f}, gaps "
              f"{' -> '.join(f'{x:.3f}' for x in gaps)}, "
              f"widths/eps [{widths}], {elapsed:.1f}s")


def test_criterion_09_cavity_shape():
    """R -> lam_1(R): decreasing and midpoint-convex on a 50-point log grid."""
    t0 = time.time()
    decreasing, convex = cavity_shape(np.geomspace(0.2, 20.0, 50))
    assert decreasing
    assert convex
    elapsed = time.time() - t0
    assert elapsed <= 5.0
    report(9, f"50-point grid decreasing/convex, {elapsed:.2f}s")


def test_criterion_10_determinism(tmp_path):
    """Identical configuration and seed produce byte-identical result CSV."""
    t0 = time.time()
    blobs = []
    for tag in ("a", "b"):
        out = tmp_path / tag / "run"
        code = cli_main(["soliton", "--g", "9,11", "--kappa", "0.05",
                         "--b", "0.01", "--n", "300", "--r-max", "18",
                         "--tol", "1e-5", "--seed", "3", "--out", str(out)])
        assert code == 0
        blobs.append((out.with_suffix(".csv").read_bytes(),
                      (tmp_path / tag / "run_profile.csv").read_bytes()))
    assert blobs[0] == blobs[1]
    elapsed = time.time() - t0
    assert elapsed <= 60.0
    report(10, f"byte-identical table and profile CSVs, {elapsed:.1f}s")
