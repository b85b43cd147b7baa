import dataclasses
import math

import numpy as np
import pytest

from bagforge import (BagConfig, GammaSweep, PotentialSpec, RadialField,
                      eps_energy, interface_width, make_grid, recovery_energy,
                      run_sweep, surface_constant)
from bagforge.gamma import (field_terms, initial_profile, l2_distance_to_bag,
                            tv_well_coordinate)
from bagforge.grid import FOUR_PI

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
    # the sweep's `BagConfig` refuses N, g and m at construction, not the
    # reference solve
    with pytest.raises(ValueError, match="below the resolution"):
        GammaSweep(eps_schedule=[0.4], **dict(CAL, g=1e-300, m=8.0))
    for key in ("g", "m"):
        with pytest.raises(ValueError, match="must be finite"):
            GammaSweep(eps_schedule=[0.4], **dict(CAL, **{key: math.nan}))
    # n is checked before r_max / n; tol must be finite and positive; the
    # budget must allow one iteration
    for key, val in (("n", 0), ("n", 15), ("tol", math.nan), ("tol", -1.0),
                     ("max_iter", 0)):
        with pytest.raises(ValueError):
            GammaSweep(eps_schedule=[0.4], **dict(CAL, **{key: val}))
    # an empty schedule is named as such, not as a nonpositive one
    with pytest.raises(ValueError, match="eps schedule is empty"):
        GammaSweep(eps_schedule=[], **CAL)
    with pytest.raises(ValueError, match="eps schedule must be positive"):
        GammaSweep(eps_schedule=[0.4, -0.1], **CAL)
    with pytest.raises(ValueError, match="need at least one quark"):
        GammaSweep(eps_schedule=[0.4], **dict(CAL, n_quarks=0))


def test_sweep_holds_the_bag_its_reference_solves():
    sweep = GammaSweep(eps_schedule=[0.4], **dict(CAL, n=320, max_iter=2))
    assert sweep.bag == BagConfig(
        n_quarks=1, g=6.8, m=8.0, a=surface_constant(CAL["potential"]),
        b=CAL["potential"].b)
    assert run_sweep(sweep).reference.config is sweep.bag
    # a replaced sweep is a new problem with its own bag
    other = dataclasses.replace(sweep, g=6.0)
    assert other.bag.g == 6.0 and other.bag.a == sweep.bag.a
    assert dataclasses.replace(sweep, tol=1e-4).bag is not sweep.bag


def test_eps_energy_vacuum_and_scaling():
    sweep = GammaSweep(eps_schedule=[0.4, 0.2], **CAL)
    zero = RadialField.zero(sweep.grid)
    for eps in (0.4, 0.2):
        assert eps_energy(sweep, eps, zero) == pytest.approx(
            sweep.n_quarks * sweep.m, abs=1e-12)
    # halving eps doubles the well term at a fixed sharp profile
    phi = initial_profile(sweep, 0.6, 0.1)
    _, well_04, _ = field_terms(sweep, 0.4, phi)
    _, well_02, _ = field_terms(sweep, 0.2, phi)
    assert well_02 == pytest.approx(2 * well_04, rel=1e-12)


def test_field_terms_are_the_functional_sums():
    sweep = GammaSweep(eps_schedule=[0.2], **CAL)
    fn = sweep.functional(0.2)
    phi = initial_profile(sweep, 0.6, 0.2)
    terms = field_terms(sweep, 0.2, phi)
    assert terms == tuple(FOUR_PI * s for s in fn.terms(phi).sums)
    assert sum(terms) == pytest.approx(fn.field_energy(phi), rel=1e-14)


def test_recovery_energy_approaches_sharp_interface_value():
    spec = PotentialSpec(kappa=1.0, b=0.02)
    a = surface_constant(spec)
    assert a == pytest.approx(1 / 3, abs=1e-10)
    # the ansatz energy is a field energy: the quark terms (g, m) drop out
    sweep = GammaSweep(eps_schedule=[0.4], **dict(CAL, potential=spec))
    sweep4 = dataclasses.replace(sweep, r_max=4.0, n=1600)
    R = 2.0
    sharp = a * 16 * math.pi + spec.b * 32 * math.pi / 3
    val = recovery_energy(sweep4, R, 0.05)
    assert val == pytest.approx(sharp, rel=0.05)
    # pure surface part (b = 0): the ansatz energies decrease monotonically
    # onto the sharp perimeter value from above; the mass term would add a
    # small smoothing deficit of order eps that can undershoot it
    spec0 = PotentialSpec(kappa=1.0, b=0.0)
    sweep0 = dataclasses.replace(sweep4, potential=spec0)
    sharp0 = surface_constant(spec0) * 16 * math.pi
    vals = [recovery_energy(sweep0, R, e)
            for e in (0.2, 0.1, 0.05, 0.025)]
    assert all(v2 < v1 for v1, v2 in zip(vals, vals[1:]))
    assert vals[-1] > sharp0
    assert vals[0] == pytest.approx(sharp0, rel=0.2)
    # doubling the radius quadruples the perimeter part of the target
    sharp_2R = a * 4 * math.pi * (2 * R) ** 2 + spec.b * (4 / 3) * math.pi * (2 * R) ** 3
    sweep8 = dataclasses.replace(sweep, r_max=8.0, n=3200)
    assert recovery_energy(sweep8, 2 * R, 0.05) == pytest.approx(
        sharp_2R, rel=0.05)
    for bad in ((0.0, 0.05), (R, 0.0)):
        with pytest.raises(ValueError, match="must be positive"):
            recovery_energy(sweep4, *bad)


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


#: a two-width sweep's rows and worst inline margin, as the sweep computed
#: them when the monitor and the gradient re-evaluated each accepted field's
#: terms: reusing them moves no bit
TWO_WIDTHS = dict(
    min_inline_liminf=0.02550949774070599,
    rows=[dict(eps=0.4, l_s=6.515123951346351,
               interface_width=0.70795384161623, l2_dist=0.523835863999142,
               equipartition_ratio=4.585874917219413,
               liminf_margin=0.5614920084600037, iterations=17,
               grad_norm=4.046366978803771e-06, converged=True,
               solves={"full": 1, "resumed": 27, "fallback": 0}),
          dict(eps=0.2, l_s=5.741861363691864,
               interface_width=0.4763411400684344, l2_dist=0.44299288652449587,
               equipartition_ratio=2.8544077264149155,
               liminf_margin=0.3707814723743337, iterations=23,
               grad_norm=5.976665592690961e-06, converged=True,
               solves={"full": 0, "resumed": 37, "fallback": 0})])


_TELEMETRY = ("iterations", "grad_norm", "solves")


def test_two_width_sweep_keeps_its_bits():
    sweep = GammaSweep(eps_schedule=[0.4, 0.2], **dict(CAL, n=320))
    result = run_sweep(sweep)
    assert result.min_inline_liminf == TWO_WIDTHS["min_inline_liminf"]
    # the run telemetry is read from each row's descent record
    assert [{k: getattr(r.descent if k in _TELEMETRY else r, k)
             for k in want}
            for r, want in zip(result.rows, TWO_WIDTHS["rows"])
            ] == TWO_WIDTHS["rows"]
    assert len(result.rows) == 2
    # each width's trials: its accepted steps and its rejected ones
    for r in result.rows:
        res = r.descent
        assert sum(res.solves.values()) - res.solves["full"] == (
            res.iterations - 1 + res.backtracks)


def test_rows_read_their_terms_from_the_descent():
    # README sweep: each row's terms and lower-bound margin are those of
    # its returned field, as `field_terms` and `tv_well_coordinate` give
    sweep = GammaSweep(eps_schedule=[0.4, 0.2, 0.1, 0.05], **CAL)
    result = run_sweep(sweep)
    assert len(result.rows) == 4
    for r in result.rows:
        phi = r.descent.phi
        e_grad, e_well, e_mass = field_terms(sweep, r.eps, phi)
        assert tuple(FOUR_PI * s for s in r.descent.terms.sums) == (
            e_grad, e_well, e_mass)
        assert r.liminf_margin == (e_grad + e_well) - tv_well_coordinate(
            sweep, phi)
        assert r.equipartition_ratio == e_grad / e_well


def test_sweep_builds_one_functional_per_width(monkeypatch):
    built = []
    functional = GammaSweep.functional
    monkeypatch.setattr(GammaSweep, "functional",
                        lambda self, eps: built.append(eps)
                        or functional(self, eps))
    sweep = GammaSweep(eps_schedule=[0.4, 0.2], **dict(CAL, n=320))
    run_sweep(sweep)
    assert built == [0.4, 0.2]


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
    grid = sweep.grid
    rng = np.random.default_rng(2)
    for _ in range(5):
        raw = rng.normal(size=grid.n) * 0.5
        kernel = np.exp(-np.linspace(-2, 2, 31) ** 2)
        vals = np.convolve(raw, kernel / kernel.sum(), mode="same")
        vals[-1] = 0.0
        e_grad, e_well, _ = field_terms(sweep, 0.1, vals)
        tv = tv_well_coordinate(sweep, vals)
        assert e_grad + e_well >= tv - 1e-10 * max(1.0, e_grad + e_well)
