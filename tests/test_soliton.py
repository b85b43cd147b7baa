import math

import numpy as np
import pytest

from bagforge import dirac, gamma, grid as grid_module, soliton
from bagforge import (GammaSweep, ModelParams, PotentialSpec, RadialField,
                      SolitonConfig, dirichlet_ball_eigenvalue, energy,
                      eps_energy, gradient, initial_guess, integrate,
                      make_grid, minimize, run_sweep)
from bagforge.descent import minimize_field
from bagforge.soliton import ELResidual, el_residual_from
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
    for budget in (0, -5):
        with pytest.raises(ValueError):
            cfg_for(max_iter=budget)
    with pytest.raises(ValueError):     # the config builds its mesh
        cfg_for(n=3)
    for params, what in ((dict(n_quarks=0), "at least one quark"),
                         (dict(g=math.nan), "must be finite"),
                         (dict(g=math.inf), "must be finite"),
                         (dict(m=math.nan), "must be finite"),
                         (dict(m=0.0), "mass m must be positive"),
                         (dict(m=-1.0), "mass m must be positive"),
                         (dict(n_quarks=2), "one excitation index per quark"),
                         (dict(k_indices=(1, 1)),
                          "one excitation index per quark")):
        with pytest.raises(ValueError, match=what):
            ModelParams(**dict(dict(n_quarks=1, g=10.0, m=1.0), **params))


def test_energy_of_vacuum_is_free_mass():
    for N in (1, 3):
        cfg = cfg_for(N=N)
        grid = cfg.grid
        assert energy(cfg, RadialField.zero(grid)) == pytest.approx(
            N * cfg.model.m, abs=1e-12)


def test_energy_monotone_in_potential():
    cfg1 = cfg_for(kappa=0.3, b=0.01)
    cfg2 = cfg_for(kappa=0.6, b=0.02)       # U doubled pointwise
    grid = cfg1.grid
    phi = RadialField(grid=grid, values=initial_guess(cfg1))
    assert energy(cfg2, phi) >= energy(cfg1, phi)


def test_ramp_field_energy_below_closed_form_bound():
    """Full-depth core of radius R with a linear ramp to zero at
    (1+sqrt(3)) R: energy bounded by the closed-form expression
    N sqrt(C_1)/R + surface+volume terms of the ramp."""
    m, N = 1.0, 1
    for g, kappa in ((10.0, 1.0), (10.0, 0.05)):
        cfg = cfg_for(g=g, kappa=kappa, b=0.01, n=3000, r_max=30.0)
        grid = cfg.grid
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
    grid = cfg.grid
    phi = RadialField(grid=grid, values=initial_guess(cfg))
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
    grid = cfg.grid
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
    assert rep.descent.grad_norm <= cfg.tol
    assert rep.el.field <= 1e-5
    assert rep.el.eigen <= 1e-8


def test_budget_cut_reports_gradient_of_returned_field():
    # three accepted steps use up the budget: the reported norm is the one
    # of the field that comes back, which is also its EL residual
    cfg = cfg_for(g=10.0, kappa=0.05, b=0.01, n=800, max_iter=3)
    rep = minimize(cfg)
    assert not rep.converged and len(rep.history) == 4
    fresh = gradient(cfg, rep.phi)
    assert rep.descent.grad_norm == pytest.approx(
        math.sqrt(integrate(rep.phi.grid, fresh.values**2)), rel=1e-12)
    assert rep.descent.grad_norm == pytest.approx(rep.el.field, rel=1e-9)


@pytest.mark.parametrize(
    "ks, solves, inverse, iterations, E, lam1, full, resumed, nodes", [
        # README soliton and its excited ladder, values as recorded
        ((1,), 162, 97, 97, 0.7783325765896295, 0.5578949642405069, 2, 161,
         161),
        ((1, 1, 2), 179, 107, 107, 2.1189172320272873, 0.3908284588805935,
         5, 175, 351),
    ])
def test_descent_inverse_iteration_only_on_accepted_fields(
        monkeypatch, ks, solves, inverse, iterations, E, lam1, full,
        resumed, nodes):
    # every energy evaluation bisects: the start field over the whole
    # window, each Armijo trial resumed from the accepted field's levels,
    # one node per level up to the highest used one, certified by one
    # count-only stebz, or over the whole window when that fails.  Only the
    # fields whose gradient is taken (the start and each accepted step) run
    # inverse iteration; the report's EL certificate solves the final field
    # once more, cold, over the whole window, since the last descent solve
    # may hold the used levels only
    window = (0.0, 1.0 - dirac.WINDOW_SHAVE)
    calls = {"full": 0, "count": 0, "node": 0, "dstein": 0}

    def stebz(d, e, rng, vl, vu, il, iu, tol, order):
        kind = ("count" if tol > 0.0 else
                "full" if (vl, vu) == window else "node")
        calls[kind] += 1
        return dirac_stebz(d, e, rng, vl, vu, il, iu, tol, order)

    def stein(*args):
        calls["dstein"] += 1
        return dirac_stein(*args)

    dirac_stebz, dirac_stein = dirac.dstebz, dirac.dstein
    monkeypatch.setattr(dirac, "dstebz", stebz)
    monkeypatch.setattr(dirac, "dstein", stein)
    rep = minimize(cfg_for(N=len(ks), ks=ks, n=800))
    assert rep.converged and rep.descent.iterations == iterations
    fallback = full - 2
    assert rep.descent.solves == {"full": 1, "resumed": resumed,
                                  "fallback": fallback}
    assert sum(rep.descent.solves.values()) == solves
    # full-window bisections: the start, the fallbacks and the certificate's;
    # a warm solve makes at most one Sturm count, and a resumed one exactly
    # one.  A node per level the warm result holds, up to the highest used
    # one: while the excited ladder holds one level, a solve bisects one
    # node, and a fallback may bisect some before its count fails
    assert calls["full"] == full
    assert resumed <= calls["count"] <= resumed + fallback
    assert calls["node"] == nodes <= (resumed + fallback) * max(ks)
    assert calls["dstein"] == inverse + 1
    assert len(rep.history) == inverse
    assert repr(rep.energy) == repr(E)
    assert repr(float(rep.lambdas[0])) == repr(lam1)


def test_near_degenerate_level_stops_the_descent_as_a_full_solve_does(
        monkeypatch):
    # the README descent's second level enters the window and then closes
    # in on the first: with the simplicity threshold at 0.399 m the gap
    # falls below it mid-descent.  A trial solve asked for the first level
    # only cannot prove the second one farther than the threshold, runs the
    # full bisection, and the descent refuses at the same accepted field,
    # with the same message, as with every solve over the whole window
    from bagforge import descent
    monkeypatch.setattr(dirac, "SIMPLE_GAP_RTOL", 0.399)
    cfg = cfg_for(n=400)
    fn = cfg.functional()
    solve = descent.eigen_solve

    def run(levels_read):
        starts, seen = [], []

        def eigen_solve(op, window=None, warm=None, levels=None):
            res = solve(op, window, warm,
                        levels if levels_read else None)
            starts.append((res.start, not res.complete))
            return res

        monkeypatch.setattr(descent, "eigen_solve", eigen_solve)
        with pytest.raises(dirac.DegenerateEigenvalueError) as err:
            descent.minimize_field(
                fn, initial_guess(cfg), tol=cfg.tol, max_iter=cfg.max_iter,
                monitor=lambda it, phi, E, gnorm, terms: seen.append(
                    (it, E, gnorm)))
        return str(err.value), seen, starts

    message, seen, starts = run(True)
    assert (message, seen) == run(False)[:2]
    assert 10 < len(seen) < 80
    # partial solves up to the last trial, which is a full one
    assert starts[-1] == ("fallback", False)
    assert starts.count(("resumed", True)) > len(seen)


def test_partial_descent_result_refuses_levels_it_does_not_hold():
    # the README descent's last solve holds its one used level: it refuses
    # the second one, which the cold solve of the same field holds
    from bagforge import descent
    cfg = cfg_for(n=400)
    fn = cfg.functional()
    res = descent.minimize_field(fn, initial_guess(cfg), tol=cfg.tol,
                                 max_iter=2000)
    assert not res.ladder.complete and res.ladder.eigenvalues.size == 1
    assert res.ladder.ladder_spinors([1])[0] is not None
    for read in (res.ladder.ladder_spinors, res.ladder.check_simple):
        with pytest.raises(ValueError, match="partial result"):
            read([1, 2])
    # nor does it list its ladder, which would drop level 2 silently
    with pytest.raises(ValueError, match="partial result"):
        res.ladder.ladder
    cold = fn.ladder(res.phi)
    assert cold.complete and cold.ladder_spinors([2])[0] is not None
    assert cold.ladder.size == 2


def test_every_warm_solve_starts_from_a_read_result(monkeypatch):
    # the descent hands a solve to the next one as `warm` only at a field
    # whose gradient it took, so the warm result's vectors are always read
    # before its enclosures need them: README soliton with its excited
    # ladder, and a two-width README gamma-sweep
    from bagforge import descent
    solve = descent.eigen_solve
    warm_read = []

    def eigen_solve(op, window=None, warm=None, levels=None):
        if warm is not None:
            warm_read.append("_pairs" in vars(warm))
        return solve(op, window, warm, levels)

    monkeypatch.setattr(descent, "eigen_solve", eigen_solve)
    for ks in ((1,), (1, 1, 2)):
        assert minimize(cfg_for(N=len(ks), ks=ks, n=400)).converged
    sweep = GammaSweep(eps_schedule=[0.4, 0.2],
                       potential=PotentialSpec(kappa=1.0, b=0.02),
                       n_quarks=1, g=6.8, m=8.0, r_max=3.0, n=640)
    assert all(row.converged for row in run_sweep(sweep).rows)
    assert len(warm_read) > 100 and all(warm_read)


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
    res0 = el_residual_from(cfg, rep.phi)
    assert res0.field == pytest.approx(rep.el.field, rel=1e-8)
    grid = rep.phi.grid
    bump = gaussian_field(grid, 2.0, 0.7, 0.02).values
    perturbed = minimize(cfg, phi0=rep.phi.values + bump)
    # evaluate the residual at the perturbed (non-stationary) field directly
    res1 = el_residual_from(cfg, RadialField(grid=grid,
                                             values=rep.phi.values + bump))
    assert res1.field > 10 * res0.field
    assert perturbed.energy <= rep.energy + 1e-8


def test_el_residual_from_makes_one_cold_solve(monkeypatch):
    # README soliton: the certificate from its own cold solve of the final
    # field over the whole window, equal to its README CSV's el_residual
    # and eigen_residual and to the report's
    cfg = cfg_for(n=800)
    rep = minimize(cfg)
    solve = dirac.eigen_solve
    starts = []

    def eigen_solve(op, window=None, warm=None, levels=None):
        res = solve(op, window, warm, levels)
        starts.append((res.start, res.complete, res.window))
        return res

    from bagforge import descent
    monkeypatch.setattr(descent, "eigen_solve", eigen_solve)
    assert el_residual_from(cfg, rep.phi) == ELResidual(
        field=7.675360654036206e-07, eigen=6.879453252982006e-15)
    assert starts == [("full", True, dirac.bound_window(cfg.model.m))]
    assert el_residual_from(cfg, rep.phi) == rep.el


def test_report_holds_the_descent_record(monkeypatch):
    # README soliton and its excited ladder: the report's descent is the
    # record of a direct descent from the same start, field by field and bit
    # for bit; its levels and states are those of the descent's last solve,
    # equal byte for byte to a cold solve of the same field; and besides the
    # descent's solves it makes one, the certificate's cold one
    from bagforge import descent
    solve = descent.eigen_solve
    cold_calls = []

    def eigen_solve(op, window=None, warm=None, levels=None):
        cold_calls.append(warm is None)
        return solve(op, window, warm, levels)

    for ks in ((1,), (1, 1, 2)):
        cfg = cfg_for(N=len(ks), ks=ks, n=800)
        fn = cfg.functional()
        cold_calls.clear()
        monkeypatch.setattr(descent, "eigen_solve", eigen_solve)
        rep = minimize(cfg)
        monkeypatch.setattr(descent, "eigen_solve", solve)
        got = rep.descent
        assert len(cold_calls) == sum(got.solves.values()) + 1
        assert cold_calls.count(True) == got.solves["full"] + 1
        assert cold_calls[-1]
        want = minimize_field(fn, initial_guess(cfg), tol=cfg.tol,
                              max_iter=cfg.max_iter)
        assert got.phi.tobytes() == want.phi.tobytes()
        for name in ("energy", "grad_norm", "iterations", "converged",
                     "history", "solves", "backtracks"):
            assert getattr(got, name) == getattr(want, name), name
        assert got.terms.sums == want.terms.sums
        assert got.terms.sums == fn.terms(got.phi).sums
        cold = fn.ladder(got.phi)
        assert rep.lambdas.tobytes() == fn.occupied(cold).tobytes()
        for psi, ref in zip(rep.spinors, cold.ladder_spinors(ks),
                            strict=True):
            assert psi.u.tobytes() == ref.u.tobytes()
            assert psi.v.tobytes() == ref.v.tobytes()


def test_solves_read_the_mesh_their_config_built(monkeypatch):
    # the descent and the sweep build no grid: each config built its one
    # mesh with it, and the report's field lives on it
    cfg = cfg_for(n=400)
    sweep = GammaSweep(eps_schedule=[0.4, 0.2],
                       potential=PotentialSpec(kappa=1.0, b=0.02),
                       n_quarks=1, g=6.8, m=8.0, r_max=3.0, n=320)
    built = []
    for module in (grid_module, soliton, gamma):
        monkeypatch.setattr(module, "make_grid",
                            lambda *a: built.append(a) or make_grid(*a))
    rep = minimize(cfg)
    run_sweep(sweep)
    assert not built
    assert rep.phi.grid is cfg.grid


_SWEEP = GammaSweep(eps_schedule=[0.4],
                    potential=PotentialSpec(kappa=1.0, b=0.02), n_quarks=1,
                    g=6.8, m=8.0, r_max=3.0, n=640)


@pytest.mark.parametrize("config, evaluate", [
    (cfg_for(), energy),
    (cfg_for(), gradient),
    (cfg_for(), el_residual_from),
    (_SWEEP, lambda sweep, phi: eps_energy(sweep, 0.4, phi)),
], ids=["energy", "gradient", "el_residual_from", "eps_energy"])
def test_field_on_another_mesh_is_refused(config, evaluate):
    # same cell count, another radius: refused, not evaluated on the
    # field's own mesh; a field on an equal mesh is evaluated
    far = RadialField.zero(make_grid(config.r_max + 1.0, config.n))
    with pytest.raises(ValueError, match="different grids"):
        evaluate(config, far)
    evaluate(config, RadialField.zero(make_grid(config.r_max, config.n)))


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
