import math

import numpy as np
import pytest

from bagforge import (GammaSweep, PotentialSpec, RadialField, eps_energy,
                      interface_width, make_grid, recovery_energy, run_sweep,
                      surface_constant)
from bagforge.gamma import (field_terms, initial_profile, l2_distance_to_bag,
                            tv_well_coordinate)

CAL = dict(potential=PotentialSpec(kappa=1.0, b=0.02), n_quarks=1, g=6.8,
           m=8.0, r_max=3.0, n=640)


def test_sweep_validation():
    with pytest.raises(ValueError):
        GammaSweep(eps_schedule=[0.4, 0.4], **CAL)
    with pytest.raises(ValueError):
        GammaSweep(eps_schedule=[0.1, 0.2], **CAL)
    with pytest.raises(ValueError):     # under-resolved interface: h > eps/10
        GammaSweep(eps_schedule=[0.4, 0.02], **CAL)
    bad = dict(CAL)
    bad["g"] = 9.0
    with pytest.raises(ValueError):     # coupling must keep the mass gap
        GammaSweep(eps_schedule=[0.4], **bad)
    # n is checked before r_max / n; tol must be finite and positive
    for key, val in (("n", 0), ("n", 15), ("tol", math.nan), ("tol", -1.0)):
        with pytest.raises(ValueError):
            GammaSweep(eps_schedule=[0.4], **dict(CAL, **{key: val}))


def test_eps_energy_vacuum_and_scaling():
    sweep = GammaSweep(eps_schedule=[0.4, 0.2], **CAL)
    grid = sweep.grid()
    zero = RadialField.zero(grid)
    for eps in (0.4, 0.2):
        assert eps_energy(sweep, eps, zero) == pytest.approx(
            sweep.n_quarks * sweep.m, abs=1e-12)
    # halving eps doubles the well term at a fixed sharp profile
    phi = initial_profile(sweep, 0.6, 0.1, grid)
    _, well_04, _ = field_terms(sweep, 0.4, phi, grid)
    _, well_02, _ = field_terms(sweep, 0.2, phi, grid)
    assert well_02 == pytest.approx(2 * well_04, rel=1e-12)


def test_recovery_energy_approaches_sharp_interface_value():
    spec = PotentialSpec(kappa=1.0, b=0.02)
    a = surface_constant(spec)
    assert a == pytest.approx(1 / 3, abs=1e-10)
    grid = make_grid(4.0, 1600)
    R = 2.0
    sharp = a * 16 * math.pi + spec.b * 32 * math.pi / 3
    val = recovery_energy(grid, R, 0.05, spec)
    assert val == pytest.approx(sharp, rel=0.05)
    # pure surface part (b = 0): the ansatz energies decrease monotonically
    # onto the sharp perimeter value from above; the mass term would add a
    # small smoothing deficit of order eps that can undershoot it
    spec0 = PotentialSpec(kappa=1.0, b=0.0)
    sharp0 = surface_constant(spec0) * 16 * math.pi
    vals = [recovery_energy(grid, R, e, spec0) for e in (0.2, 0.1, 0.05, 0.025)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > sharp0
    assert vals[0] == pytest.approx(sharp0, rel=0.2)
    # doubling the radius quadruples the perimeter part of the target
    sharp_2R = a * 4 * math.pi * (2 * R) ** 2 + spec.b * (4 / 3) * math.pi * (2 * R) ** 3
    grid8 = make_grid(8.0, 3200)
    assert recovery_energy(grid8, 2 * R, 0.05, spec) == pytest.approx(
        sharp_2R, rel=0.05)


def test_interface_width_of_tanh_profile():
    grid = make_grid(3.0, 600)
    eps, kappa, R = 0.1, 1.0, 1.5
    s = math.sqrt(kappa) / 2
    vals = -(1 - np.tanh((grid.r_primal - R) * s / eps)) / 2
    vals[-1] = 0.0
    w = interface_width(grid, vals)
    # analytic width between the -0.9 and -0.1 levels: 2 atanh(0.8) eps/s
    assert w == pytest.approx(2 * math.atanh(0.8) * eps / s, rel=2e-2)
    flat = np.zeros(grid.n)
    assert math.isnan(interface_width(grid, flat))


def test_l2_distance_identifies_bag_radius():
    grid = make_grid(3.0, 600)
    R = 1.2
    vals = np.where(grid.r_primal <= R, -1.0, 0.0)
    vals[-1] = 0.0
    dist, R_fit = l2_distance_to_bag(grid, vals)
    assert dist <= 1e-12
    assert R_fit == pytest.approx(R, abs=2 * grid.h)


def test_run_sweep_converges_to_sharp_bag():
    sweep = GammaSweep(eps_schedule=[0.4, 0.2, 0.1, 0.05], **CAL)
    result = run_sweep(sweep)
    assert result.feasible
    assert result.l_c < sweep.n_quarks * sweep.m
    assert all(r.converged for r in result.rows)
    gaps = result.gaps()
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] <= 5e-2 * result.l_c
    for r in result.rows:
        assert 0.5 <= r.interface_width / r.eps <= 5.0
        assert r.liminf_margin >= -1e-10
    assert result.min_inline_liminf >= -1e-10
    # fields approach the characteristic profile
    dists = [r.l2_dist for r in result.rows]
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    # gradient and well terms equilibrate as the interface tightens
    ratios = [r.equipartition_ratio for r in result.rows]
    assert abs(ratios[-1] - 1.0) <= abs(ratios[0] - 1.0) + 0.05
    assert 0.3 <= ratios[-1] <= 3.0


def test_cold_start_at_small_eps_collapses():
    # documents why the schedule warm-starts: the vacuum basin swallows a
    # cold start at small eps
    sweep = GammaSweep(eps_schedule=[0.05], **CAL)
    fn = sweep.functional(0.05)
    from bagforge.descent import minimize_field
    res = minimize_field(fn, np.zeros(sweep.n), tol=1e-5, max_iter=200)
    assert res.energy == pytest.approx(sweep.n_quarks * sweep.m, abs=1e-6)


def test_liminf_holds_for_arbitrary_fields():
    sweep = GammaSweep(eps_schedule=[0.1], **CAL)
    grid = sweep.grid()
    rng = np.random.default_rng(2)
    for _ in range(5):
        raw = rng.normal(size=grid.n) * 0.5
        kernel = np.exp(-np.linspace(-2, 2, 31) ** 2)
        vals = np.convolve(raw, kernel / kernel.sum(), mode="same")
        vals[-1] = 0.0
        e_grad, e_well, _ = field_terms(sweep, 0.1, vals, grid)
        tv = tv_well_coordinate(sweep, vals, grid)
        assert e_grad + e_well >= tv - 1e-10 * max(1.0, e_grad + e_well)
