"""The descent's per-trial path: the metric step straight to LAPACK, the
functional's cached weights and the count of rejected Armijo trials; and
the one budget rule both model configs apply."""

import dataclasses
import math

import numpy as np
import pytest
from scipy.linalg import solveh_banded

from bagforge import (GammaSweep, ModelParams, PotentialSpec, SolitonConfig,
                      descent, dirac, initial_guess)
from bagforge.gamma import initial_profile
from bagforge.grid import FOUR_PI

README_SOLITON = SolitonConfig(
    model=ModelParams(n_quarks=1, g=10.0, m=1.0),
    potential=PotentialSpec(kappa=0.05, b=0.01), r_max=20.0, n=800)
README_SWEEP = GammaSweep(eps_schedule=[0.4, 0.2, 0.1, 0.05],
                          potential=PotentialSpec(kappa=1.0, b=0.02),
                          n_quarks=1, g=6.8, m=8.0, r_max=3.0, n=640)


def _per_call_metric_bands(fn, phi):
    """The metric's two-row upper band as the descent built it on every
    step before its constant pieces were cached per functional."""
    gr = fn.grid
    nd = gr.n - 1
    mass = (FOUR_PI * gr.vol_primal[:nd]
            * (1.0 + np.abs(fn.curvature(phi[:-1]))))
    stiff = FOUR_PI * gr.vol_staggered[1:] * max(fn.c_grad, 1e-12) / gr.h**2
    diag = mass + stiff
    diag[1:] += stiff[:-1]
    ab = np.zeros((2, nd))
    ab[0, 1:] = -stiff[:-1]
    ab[1] = diag
    return ab


def _start_fields():
    """(functional, field) of the README soliton's start and of the README
    sweep's start at its second width."""
    yield README_SOLITON.functional(), initial_guess(README_SOLITON)
    yield (README_SWEEP.functional(0.2),
           initial_profile(README_SWEEP, 0.6, 0.2))


@pytest.mark.parametrize("case", [0, 1], ids=["soliton", "gamma-eps0.2"])
def test_metric_step_is_the_banded_solve_bit_for_bit(case):
    fn, phi = list(_start_fields())[case]
    # the start field and the field a few descent steps on
    res = descent.minimize_field(fn, phi, tol=1e-6, max_iter=4)
    for field in (phi, res.phi):
        dE = fn.gradient_partials(field, fn.ladder(field), fn.terms(field))
        ref = solveh_banded(_per_call_metric_bands(fn, field), dE,
                            lower=False)
        step = fn.metric_step(field, dE)
        assert step.tobytes() == ref.tobytes()


def test_non_finite_gradient_raises_before_a_step(monkeypatch):
    fn, phi = next(_start_fields())
    dE = fn.gradient_partials(phi, fn.ladder(phi), fn.terms(phi))
    for bad in (np.nan, np.inf):
        broken = dE.copy()
        broken[7] = bad
        with pytest.raises(ValueError, match="infs or NaNs"):
            fn.metric_step(phi, broken)
    # in the descent the start field's gradient is not finite, a solver
    # failure naming the coupling: no trial is evaluated after the start
    calls = []
    energy_and_ladder = descent.FieldFunctional.energy_and_ladder
    monkeypatch.setattr(descent.FieldFunctional, "gradient_partials",
                        lambda self, *a, **k: np.full(fn.grid.n - 1, np.nan))
    monkeypatch.setattr(descent.FieldFunctional, "energy_and_ladder",
                        lambda self, *a, **k: calls.append(1)
                        or energy_and_ladder(self, *a, **k))
    with pytest.raises(RuntimeError,
                       match=r"g=10\.0 .* iteration 1: .*gradient norm nan"):
        descent.minimize_field(fn, phi, tol=1e-6, max_iter=2000)
    assert len(calls) == 1


def test_start_energy_out_of_range_is_a_solver_failure():
    # a start well of depth m/g = 1e300 squares past double range
    cfg = SolitonConfig(model=ModelParams(n_quarks=1, g=1e-300, m=1.0),
                        potential=PotentialSpec(kappa=1.0, b=0.01),
                        r_max=20.0, n=64)
    fn = cfg.functional()
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match=r"g=1e-300 .* iteration 1: energy inf"):
        descent.minimize_field(fn, initial_guess(cfg), tol=1e-6,
                               max_iter=2000)


def _counted_trials(monkeypatch):
    """Energies of every `energy_and_ladder` call, inf for one that raises
    NonFiniteError; the first is the start field's."""
    energies = []
    energy_and_ladder = descent.FieldFunctional.energy_and_ladder

    def counted(self, *a, **k):
        try:
            out = energy_and_ladder(self, *a, **k)
        except dirac.NonFiniteError:
            energies.append(np.inf)
            raise
        energies.append(out[0])
        return out

    monkeypatch.setattr(descent.FieldFunctional, "energy_and_ladder", counted)
    return energies


def test_trial_out_of_double_range_is_rejected(monkeypatch):
    # a step so long that the first trials' field energy overflows: those
    # trials are rejected, the shorter ones have finite energies far above
    # the start's and are rejected too, and the descent ends unconverged at
    # the start field, which keeps its finite energy
    fn, phi = next(_start_fields())
    step = descent.FieldFunctional.metric_step      # max |step| ~ 0.07
    monkeypatch.setattr(descent.FieldFunctional, "metric_step",
                        lambda self, *a: step(self, *a) * 1e80)
    energies = _counted_trials(monkeypatch)
    with np.errstate(all="ignore"):
        res = descent.minimize_field(fn, phi, tol=1e-6, max_iter=2000)
    trials = energies[1:]
    assert not res.converged and res.iterations == 1
    assert res.history == [energies[0]] and res.energy == energies[0]
    assert res.backtracks == len(trials) == 54      # alpha 1 .. 2^-53
    assert 0 < sum(map(np.isinf, trials)) < len(trials)
    assert sum(res.solves.values()) == len(energies)


def test_line_search_wholly_out_of_double_range_raises(monkeypatch):
    # a step so long that g * trial overflows: each trial's operator is not
    # finite and its eigen-solve refuses it, or its field energy is inf.
    # With no trial of finite energy the arithmetic, not the budget, ends
    # the descent: a solver failure naming the coupling
    fn, phi = next(_start_fields())
    step = descent.FieldFunctional.metric_step
    monkeypatch.setattr(descent.FieldFunctional, "metric_step",
                        lambda self, *a: step(self, *a) * 1e300 * 3e8)
    refused = []
    eigen_solve = descent.eigen_solve

    def solve(op, *a, **k):
        try:
            return eigen_solve(op, *a, **k)
        except dirac.NonFiniteError:
            refused.append(op)
            raise

    monkeypatch.setattr(descent, "eigen_solve", solve)
    energies = _counted_trials(monkeypatch)
    with np.errstate(all="ignore"), pytest.raises(
            RuntimeError, match=r"g=10\.0 .* iteration 1: no line-search "
                                r"trial has finite energy"):
        descent.minimize_field(fn, phi, tol=1e-6, max_iter=2000)
    assert len(energies) == 1 + 54 and np.all(np.isinf(energies[1:]))
    assert len(refused) == 1


def test_a_step_that_does_not_descend_ends_unconverged(monkeypatch):
    # a zero metric step has slope 0: the descent stops at its start field
    # after one iteration, whose gradient norm is above tol
    fn, phi = next(_start_fields())
    monkeypatch.setattr(descent.FieldFunctional, "metric_step",
                        lambda self, phi, dE: np.zeros_like(dE))
    res = descent.minimize_field(fn, phi, tol=1e-6, max_iter=2000)
    assert res.iterations == 1 and res.converged is False
    assert res.history == [res.energy] and res.grad_norm > 1e-6
    assert res.backtracks == 0


def test_gradient_partials_makes_no_eigen_solve(monkeypatch):
    # the gradient reads the solve it is given and solves nothing itself
    fn, phi = next(_start_fields())
    solve, terms = fn.ladder(phi), fn.terms(phi)
    calls = []
    monkeypatch.setattr(descent, "eigen_solve",
                        lambda *a, **k: calls.append(1))
    dE = fn.gradient_partials(phi, solve, terms)
    assert not calls and np.all(np.isfinite(dE))


def test_functional_weights_refuse_assignment():
    for fn, _ in _start_fields():
        cached = [a for a in vars(fn).values() if isinstance(a, np.ndarray)]
        assert len(cached) == 5
        for a in cached:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0


def test_trials_are_accepted_steps_plus_backtracks(monkeypatch):
    # README soliton: every energy evaluation after the start field is a
    # line-search trial, accepted or rejected
    calls = []
    energy_and_ladder = descent.FieldFunctional.energy_and_ladder
    monkeypatch.setattr(descent.FieldFunctional, "energy_and_ladder",
                        lambda self, *a, **k: calls.append(1)
                        or energy_and_ladder(self, *a, **k))
    fn = README_SOLITON.functional()
    res = descent.minimize_field(fn, initial_guess(README_SOLITON),
                                 tol=README_SOLITON.tol, max_iter=2000)
    trials = len(calls) - 1
    assert res.converged and res.backtracks > 0
    assert trials == len(res.history) - 1 + res.backtracks
    assert sum(res.solves.values()) == len(calls)


@pytest.mark.parametrize("budget", [dict(tol=math.nan), dict(tol=math.inf),
                                    dict(tol=0.0), dict(tol=-1.0),
                                    dict(max_iter=0)])
def test_both_configs_refuse_a_budget_by_the_one_rule(budget):
    full = dict(dict(tol=1e-6, max_iter=10), **budget)
    with pytest.raises(ValueError) as rule:
        descent.check_budget(**full)
    for cfg in (README_SOLITON, README_SWEEP):
        with pytest.raises(ValueError) as refused:
            dataclasses.replace(cfg, **budget)
        assert str(refused.value) == str(rule.value)
