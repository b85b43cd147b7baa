import math

import numpy as np
import pytest

from bagforge import (BagConfig, bag_energy, cavity_energy,
                      dirichlet_ball_eigenvalue, minimize_bag, mit_eigenvalue,
                      mit_ground, mit_limit)
from bagforge.bag import cavity_energy_derivative
from bagforge.verify import cavity_shape


def test_config_validation():
    with pytest.raises(ValueError):
        BagConfig(n_quarks=1, g=1.2, m=1.0, a=1e-3, b=1e-3)
    with pytest.raises(ValueError):
        BagConfig(n_quarks=1, g=0.8, m=1.0, a=0.0, b=0.0)
    with pytest.raises(ValueError):
        BagConfig(n_quarks=0, g=0.8, m=1.0, a=1e-3, b=1e-3)
    with pytest.raises(ValueError, match="ladder index starts at 1"):
        BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3, k=0)
    with pytest.raises(ValueError, match="finite"):
        BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3,
                  r_interval=(1.0, math.inf))
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3)
    assert cfg.r_interval[0] > 0


@pytest.mark.parametrize("R", [0.0, -1.0, math.nan, math.inf])
def test_cavity_energy_refuses_a_radius_through_its_problem(R):
    with pytest.raises(ValueError, match="R must be"):
        cavity_energy(1, 0.2, 1.0, 1e-3, 1e-3, 1, R)


def test_energy_small_radius_limit():
    cfg = BagConfig(n_quarks=2, g=0.8, m=1.0, a=1e-3, b=1e-3)
    e = bag_energy(cfg, 1e-3)
    assert e == pytest.approx(2.0 * cfg.m, abs=1e-4)


def test_surface_term_of_fixed_sphere():
    a = 0.7
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=a, b=0.0)
    with_a = bag_energy(cfg, 2.0)
    cfg0 = BagConfig(n_quarks=1, g=0.8, m=1.0, a=0.0, b=1e-12)
    without = cavity_energy(1, 0.2, 1.0, 0.0, 0.0, 1, 2.0)
    assert with_a - without == pytest.approx(16 * math.pi * a, rel=1e-10)
    assert cfg0.r_interval[0] > 0


def test_energy_below_closed_form_bound_everywhere():
    # kinetic bound per level: lam_k <= sqrt(C_k/R^2 + (m-g)^2)
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3, k=1)
    C1 = dirichlet_ball_eigenvalue(1)
    for R in np.geomspace(0.2, 20.0, 40):
        bound = (math.sqrt(C1 / R**2 + (cfg.m - cfg.g) ** 2)
                 + cfg.a * 4 * math.pi * R**2
                 + cfg.b * (4 / 3) * math.pi * R**3)
        assert bag_energy(cfg, R) <= bound + 1e-12


def test_minimize_interior_optimum_binds():
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3)
    rep = minimize_bag(cfg)
    assert not rep.flagged
    assert rep.energy < cfg.m
    assert 0.0 < rep.lam < cfg.m
    # global-search soundness on a dense radius scan
    scan = [bag_energy(cfg, R) for R in np.geomspace(*cfg.r_interval, 200)]
    assert rep.energy <= min(scan) + 1e-9
    assert rep.curvature_residual <= 1e-6


def test_wall_balance_is_stationarity():
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3)
    rep = minimize_bag(cfg)
    # analytic derivative agrees with central differences of the energy
    R = rep.R * 1.07
    dR = 1e-6 * R
    fd = (bag_energy(cfg, R + dR) - bag_energy(cfg, R - dR)) / (2 * dR)
    an = cavity_energy_derivative(cfg.n_quarks, cfg.m - cfg.g, cfg.m, cfg.a,
                                  cfg.b, cfg.k, R)
    assert an == pytest.approx(fd, rel=1e-4)
    # derivative at the optimum vanishes => wall balance holds there
    at_opt = cavity_energy_derivative(cfg.n_quarks, cfg.m - cfg.g, cfg.m,
                                      cfg.a, cfg.b, cfg.k, rep.R)
    assert abs(at_opt) <= 1e-8
    # perturbing the radius breaks the balance
    perturbed = abs(2 * cfg.a / R + cfg.b
                    - cfg.n_quarks * cfg.g
                    * _boundary_density(cfg, R))
    assert perturbed > 10 * rep.curvature_residual


def _boundary_density(cfg, R):
    from bagforge import TwoZoneProblem, eigenvalues, two_zone_state
    p = TwoZoneProblem(mu_in=cfg.m - cfg.g, mu_out=cfg.m, R=R)
    lam = eigenvalues(p, cfg.k)[cfg.k - 1]
    return two_zone_state(p, lam).boundary_density()


def test_zero_surface_tension_balance():
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=0.0, b=2e-3)
    rep = minimize_bag(cfg)
    assert not rep.flagged
    assert rep.curvature_residual <= 1e-6   # reduces to |b - N g rho(R)|


def test_heavy_penalty_collapses_to_boundary():
    cfg = BagConfig(n_quarks=1, g=0.8, m=1.0, a=10.0, b=10.0)
    rep = minimize_bag(cfg)
    assert rep.flagged
    assert rep.energy >= cfg.m - 1e-6


def test_excited_bag_costs_more():
    base = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-4, b=1e-4, k=1,
                     r_interval=(0.5, 60.0))
    exc = BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-4, b=1e-4, k=2,
                    r_interval=(0.5, 60.0))
    assert minimize_bag(exc).energy >= minimize_bag(base).energy - 1e-12


# ---------------------------------------------------------------- hard wall


def test_mit_ground_massless_closed_form(monkeypatch):
    # nearly massless quark, volume-only penalty: stationarity of
    # x0/R + (4/3) pi b R^3 gives R = (x0/(4 pi b))^(1/4).  After its radius
    # search the optimum solves its level once, for both lam and the energy
    from bagforge import bag
    cfg = BagConfig(n_quarks=1, g=0.5e-8, m=1e-8, a=0.0, b=1.0,
                    r_interval=(0.05, 10.0))
    solves, searched = [], []
    monkeypatch.setattr(bag, "mit_eigenvalue",
                        lambda *a: solves.append(a) or mit_eigenvalue(*a))
    search = bag._optimize_radius
    monkeypatch.setattr(bag, "_optimize_radius", lambda *a, **kw: (
        search(*a, **kw), searched.append(len(solves)))[0])
    rep = mit_ground(cfg)
    assert solves[searched[0]:] == [(rep.R, cfg.m, 1)]
    assert rep.lam == mit_eigenvalue(rep.R, cfg.m, 1)
    assert rep.energy == rep.lam + (4.0 / 3.0) * math.pi * rep.R**3
    x0 = mit_eigenvalue(1.0, 1e-8, 1)      # massless cavity frequency
    assert rep.R == pytest.approx((x0 / (4 * math.pi)) ** 0.25, rel=1e-5)


def test_mit_ground_more_quarks_bigger_bag():
    reports = []
    for N in (1, 2, 4):
        cfg = BagConfig(n_quarks=N, g=0.5, m=1.0, a=0.01, b=0.01,
                        r_interval=(0.05, 50.0))
        reports.append(mit_ground(cfg))
    assert reports[0].R < reports[1].R < reports[2].R
    # dense-scan soundness
    cfg = BagConfig(n_quarks=2, g=0.5, m=1.0, a=0.01, b=0.01,
                    r_interval=(0.05, 50.0))
    f = lambda R: (2 * mit_eigenvalue(R, 1.0, 1) + 0.01 * 4 * math.pi * R**2
                   + 0.01 * (4 / 3) * math.pi * R**3)
    scan = min(f(R) for R in np.geomspace(0.05, 50.0, 200))
    assert reports[1].energy <= scan + 1e-9


def test_mit_eigenvalue_decreasing_convex():
    decreasing, convex = cavity_shape(np.geomspace(0.3, 30.0, 50))
    assert decreasing
    assert convex
    # large cavity limit: eigenvalue decays to the mass
    assert mit_eigenvalue(500.0, 1.0, 1) == pytest.approx(1.0, abs=1e-2)


def test_mit_limit_sequence():
    cfg = BagConfig(n_quarks=1, g=0.5, m=1.0, a=0.01, b=0.01)
    masses = [2.0**j for j in range(1, 11)]
    result = mit_limit(cfg, masses)
    gaps = result.energy_gaps()
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] <= 1e-2
    # the weakest wall cannot bind at these penalties: collapse is flagged
    # and the pre-threshold row carries no boundary ratio
    assert result.rows[0].flagged
    bound_rows = [r for r in result.rows if not r.flagged]
    assert len(bound_rows) == len(result.rows) - 1
    ratios = np.array([abs(r.boundary_ratio - 1.0) for r in bound_rows])
    assert np.all(np.diff(ratios) < 0)
    assert ratios[-1] <= 5e-3
    radii = np.array([r.R for r in bound_rows])
    assert np.all(radii > 0.3)
    assert np.max(radii) < 10.0


def test_mit_limit_excited_level_closes_on_its_own_limit():
    # the rows solve level 2 and close on 3.79495; a limit row on level 1
    # (2.36324) would leave every gap near 1.43
    cfg = BagConfig(n_quarks=1, g=0.5, m=1.0, a=0.01, b=0.01, k=2)
    result = mit_limit(cfg, [2.0**j for j in (4, 8, 12, 16)])
    limit = result.limit
    assert limit.lam == mit_eigenvalue(limit.R, cfg.m, 2)
    gaps = result.energy_gaps()
    assert np.all(np.diff(gaps) < 0)
    assert gaps[-1] <= 1e-4


def test_mit_limit_input_validation():
    cfg = BagConfig(n_quarks=1, g=0.5, m=1.0, a=0.01, b=0.01)
    with pytest.raises(ValueError):
        mit_limit(cfg, [0.5, 2.0])
    with pytest.raises(ValueError):
        mit_limit(cfg, [4.0, 2.0])


def test_mit_ground_radius_scales_with_quark_count():
    # nearly massless quarks, volume penalty only: R* = (N x0/(4 pi b))^(1/4)
    reports = []
    for N in (1, 16):
        cfg = BagConfig(n_quarks=N, g=0.5e-8, m=1e-8, a=0.0, b=1.0,
                        r_interval=(0.05, 10.0))
        reports.append(mit_ground(cfg))
    assert reports[1].R / reports[0].R == pytest.approx(2.0, rel=1e-4)


def test_readme_bag_scan_stops_at_last_root(monkeypatch):
    # the root scan samples each branch's ends, bisects its sample grid to
    # the one sign change and stops at the root that completes the ladder;
    # the bisection endpoints, and so every value, are those of sampling
    # whole branches in order
    import bagforge.dispersion as dispersion
    calls = 0
    inner = dispersion.matching_function

    def counted(p, x):
        nonlocal calls
        calls += 1
        return inner(p, x)

    monkeypatch.setattr(dispersion, "matching_function", counted)
    rep = minimize_bag(BagConfig(n_quarks=1, g=0.8, m=1.0, a=1e-3, b=1e-3))
    assert calls <= 4400
    assert (repr(rep.R), repr(rep.lam), repr(rep.energy)) == (
        "2.75185397850765", "0.7066969195998102", "0.8891483329285179")
