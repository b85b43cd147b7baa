import math

import numpy as np
import pytest

from bagforge import (ModelParams, PotentialSpec, RadialField, SolitonConfig,
                      dirichlet_ball_eigenvalue, el_residual, energy,
                      gradient, initial_guess, integrate, make_grid, minimize)
from bagforge.verify import gaussian_field


def cfg_for(g=10.0, kappa=0.05, b=0.01, N=1, ks=None, n=600, r_max=20.0,
            tol=1e-6, max_iter=4000):
    ks = tuple(ks or (1,) * N)
    return SolitonConfig(model=ModelParams(n_quarks=N, g=g, m=1.0,
                                           k_indices=ks),
                         potential=PotentialSpec(kappa=kappa, b=b),
                         r_max=r_max, n=n, tol=tol, max_iter=max_iter)


def test_config_validation():
    with pytest.raises(ValueError):
        cfg_for(N=2, ks=(2, 1))
    with pytest.raises(ValueError):
        cfg_for(g=-1.0)


def test_energy_of_vacuum_is_free_mass():
    for N in (1, 3):
        cfg = cfg_for(N=N)
        grid = cfg.grid()
        assert energy(cfg, RadialField.zero(grid)) == pytest.approx(
            N * cfg.model.m, abs=1e-12)


def test_energy_monotone_in_potential():
    cfg1 = cfg_for(kappa=0.3, b=0.01)
    cfg2 = cfg_for(kappa=0.6, b=0.02)       # U doubled pointwise
    grid = cfg1.grid()
    phi = RadialField(grid=grid, values=initial_guess(cfg1, grid))
    assert energy(cfg2, phi) >= energy(cfg1, phi)


def test_ramp_field_energy_below_closed_form_bound():
    """Full-depth core of radius R with a linear ramp to zero at
    (1+sqrt(3)) R: energy bounded by the closed-form expression
    N sqrt(C_1)/R + surface+volume terms of the ramp."""
    m, N = 1.0, 1
    for g, kappa in ((10.0, 1.0), (10.0, 0.05)):
        cfg = cfg_for(g=g, kappa=kappa, b=0.01, n=3000, r_max=30.0)
        grid = cfg.grid()
        R = 3.0
        Rp = (1 + math.sqrt(3)) * R
        ramp = np.clip((Rp - grid.r_primal) / (Rp - R), 0.0, 1.0)
        phi = RadialField(grid=grid, values=-(m / g) * ramp)
        sup_u = float(np.max(cfg.potential.u(
            np.linspace(-m / g, 0.0, 1001))))
        f_bound = (N * math.sqrt(dirichlet_ball_eigenvalue(1)) / R
                   + (4 * m**2 * (3 + 2 * math.sqrt(3)) * math.pi
                      / (6 * g**2)) * R
                   + (4 * (1 + math.sqrt(3))**3 * math.pi / 3) * sup_u * R**3)
        assert energy(cfg, phi) <= f_bound + 1e-2


def test_gradient_matches_directional_differences():
    cfg = cfg_for(n=500)
    grid = cfg.grid()
    phi = RadialField(grid=grid, values=initial_guess(cfg, grid))
    gvec = gradient(cfg, phi)
    rng = np.random.default_rng(5)
    for _ in range(5):
        d = gaussian_field(grid, rng.uniform(1.0, 6.0),
                           rng.uniform(0.4, 1.5)).values
        t = 1e-4
        ep = energy(cfg, RadialField(grid=grid, values=phi.values + t * d))
        em = energy(cfg, RadialField(grid=grid, values=phi.values - t * d))
        fd = (ep - em) / (2 * t)
        an = integrate(grid, gvec.values * d)
        assert an == pytest.approx(fd, rel=1e-4)


def test_gradient_of_vacuum_is_zero_field():
    cfg = cfg_for()
    grid = cfg.grid()
    gvec = gradient(cfg, RadialField.zero(grid))
    assert np.max(np.abs(gvec.values)) == 0.0


def test_minimize_large_coupling_binds():
    cfg = cfg_for(g=10.0, kappa=0.05, b=0.01)
    rep = minimize(cfg)
    assert rep.converged
    assert rep.energy < cfg.model.m * cfg.model.n_quarks
    assert rep.all_bound
    assert 0.0 < rep.lambdas[0] < cfg.model.m
    # nonincreasing accepted energies
    assert all(b <= a + 1e-12 for a, b in zip(rep.history, rep.history[1:]))
    # converged stationarity
    assert rep.grad_norm <= cfg.tol
    assert rep.el.field <= 1e-5
    assert rep.el.eigen <= 1e-8


def test_minimize_weak_coupling_collapses():
    cfg = cfg_for(g=0.1, kappa=1.0, b=0.01, max_iter=6000)
    rep = minimize(cfg)
    assert rep.energy == pytest.approx(cfg.model.n_quarks * cfg.model.m,
                                       abs=1e-2)


def test_excited_ladder_costs_more():
    base = cfg_for(g=12.0, kappa=0.05, b=0.01)
    rep1 = minimize(base)
    excited = cfg_for(g=12.0, kappa=0.05, b=0.01, ks=(2,))
    rep2 = minimize(excited)
    assert rep2.energy >= rep1.energy - 1e-10


def test_el_residual_increases_under_perturbation():
    cfg = cfg_for(g=10.0, kappa=0.05, b=0.01)
    rep = minimize(cfg)
    res0 = el_residual(cfg, rep)
    assert res0.field == pytest.approx(rep.el.field, rel=1e-8)
    grid = rep.phi.grid
    bump = gaussian_field(grid, 2.0, 0.7, 0.02).values
    perturbed = minimize(cfg, phi0=rep.phi.values + bump)
    # evaluate the residual at the perturbed (non-stationary) field directly
    from bagforge.soliton import el_residual_from
    fn = cfg.functional(grid)
    solve = fn.ladder(rep.phi.values + bump)
    spin = solve.spectral.ladder_spinors(cfg.model.k_indices)
    res1 = el_residual_from(cfg, RadialField(grid=grid,
                                             values=rep.phi.values + bump),
                            solve, spin)
    assert res1.field > 10 * res0.field
    assert perturbed.energy <= rep.energy + 1e-8


def test_energy_stable_under_refinement():
    e = {}
    for n in (500, 1000):
        cfg = cfg_for(g=10.0, kappa=0.05, b=0.01, n=n)
        e[n] = minimize(cfg).energy
    assert abs(e[500] - e[1000]) <= 5e-3


def test_binding_threshold_moves_with_well_strength():
    """The smallest coupling that binds (energy < N m) is finite and grows
    with the well strength kappa: at g = 10 a stiff well fails where a soft
    well binds; at larger g the stiff well binds too."""
    soft = minimize(cfg_for(g=10.0, kappa=0.05, b=0.01, n=400))
    stiff = minimize(cfg_for(g=10.0, kappa=1.0, b=0.01, n=400))
    stiff_strong = minimize(cfg_for(g=40.0, kappa=1.0, b=0.01, n=400))
    m = 1.0
    assert soft.energy < m - 1e-3
    assert stiff.energy >= m - 1e-3          # kappa = 1 needs more coupling
    assert stiff_strong.energy < m - 1e-3
