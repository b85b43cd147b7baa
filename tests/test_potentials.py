import numpy as np
import pytest

from bagforge import PotentialSpec, check_hypotheses, surface_constant


def test_well_zeros_and_nonnegativity():
    spec = PotentialSpec(kappa=1.0, b=0.5)
    t = np.linspace(-3, 3, 601)
    assert np.all(spec.w(t) >= 0)
    assert spec.w(0.0) == 0.0
    assert spec.w(-1.0) == 0.0
    assert spec.u(0.0) == 0.0
    assert spec.u_prime(0.0) == 0.0


def test_growth_bound():
    # W(t) <= c (t^2 + t^4) on the sampled range with c = 2 kappa
    spec = PotentialSpec(kappa=1.3, b=0.0)
    t = np.linspace(-3, 3, 601)
    assert np.all(spec.w(t) <= 2 * spec.kappa * (t**2 + t**4) + 1e-12)


def test_surface_constant_quartic():
    # 2 int_0^1 s(1-s) ds = 1/3, scaling sqrt(kappa)
    assert surface_constant(PotentialSpec(kappa=1.0)) == pytest.approx(
        1.0 / 3.0, abs=1e-10)
    assert surface_constant(PotentialSpec(kappa=4.0)) == pytest.approx(
        2.0 / 3.0, abs=1e-10)
    assert surface_constant(PotentialSpec(kappa=1e-6)) == pytest.approx(
        1e-3 / 3.0, rel=1e-8)


def test_surface_constant_sqrt_scaling():
    base = surface_constant(PotentialSpec(kappa=1.0))
    for kappa in (0.3, 2.0, 7.5):
        val = surface_constant(PotentialSpec(kappa=kappa))
        assert val == pytest.approx(np.sqrt(kappa) * base, abs=1e-10)
        assert val > 0


def test_derivative_consistency():
    spec = PotentialSpec(kappa=1.7, b=0.25)
    t = np.linspace(-3, 3, 301)
    h = 1e-6
    for f, df in ((spec.u, spec.u_prime), (spec.w_prime, spec.w_second),
                  (spec.u_prime, spec.u_second)):
        fd = (f(t + h) - f(t - h)) / (2 * h)
        assert np.max(np.abs(fd - df(t))) < 1e-8 * max(
            1.0, float(np.max(np.abs(fd))))


def test_hypotheses_report_mass_term():
    rep = check_hypotheses(PotentialSpec(kappa=1.0, b=0.5))
    assert rep.holds_h2
    assert rep.coercivity_c == pytest.approx(0.5, rel=1e-3)
    assert rep.growth_p == 3.0
    assert rep.growth_C > 0


def test_hypotheses_violation_without_mass_term():
    rep = check_hypotheses(PotentialSpec(kappa=1.0, b=0.0))
    assert not rep.holds_h2
    assert any(abs(t + 1.0) < 0.02 for t in rep.violations)


def test_invalid_spec():
    with pytest.raises(ValueError):
        PotentialSpec(kappa=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(kappa=1.0, b=-0.1)
