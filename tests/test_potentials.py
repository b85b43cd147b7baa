import numpy as np
import pytest
from scipy.integrate import quad

from bagforge import PotentialSpec, surface_constant


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


@pytest.mark.parametrize("kappa", [1e-6, 0.3, 1.0, 1.4, 7.5])
def test_surface_constant_is_twice_the_integral_of_sqrt_w(kappa):
    # the closed form sqrt(kappa)/3 against adaptive quadrature of 2 sqrt(W)
    # over the interval between the wells
    spec = PotentialSpec(kappa=kappa)
    val, _ = quad(lambda s: 2.0 * np.sqrt(spec.w(s)), -1.0, 0.0,
                  epsabs=0.0, epsrel=1e-13)
    assert surface_constant(spec) == pytest.approx(val, rel=1e-13, abs=0.0)


def test_derivative_consistency():
    spec = PotentialSpec(kappa=1.7, b=0.25)
    t = np.linspace(-3, 3, 301)
    h = 1e-6
    for f, df in ((spec.u, spec.u_prime), (spec.w_prime, spec.w_second),
                  (spec.u_prime, spec.u_second)):
        fd = (f(t + h) - f(t - h)) / (2 * h)
        assert np.max(np.abs(fd - df(t))) < 1e-8 * max(
            1.0, float(np.max(np.abs(fd))))


def _sample_nonzero():
    t = np.linspace(-3.0, 3.0, 2001)
    return np.append(t[np.abs(t) > 1e-12], -1.0)    # second well, where U/t^2 dips


def test_hypotheses_report_mass_term():
    # U(t)/t^2 = kappa (1+t)^2 + b: the coercivity constant is exactly b,
    # attained at the second well; |U'(t)| <= C (|t| + |t|^3)
    spec = PotentialSpec(kappa=1.0, b=0.5)
    t = _sample_nonzero()
    ratio = spec.u(t) / t**2
    assert np.all(ratio >= spec.b - 1e-12)
    assert float(np.min(ratio)) == pytest.approx(0.5, rel=1e-3)
    assert spec.u(-1.0) == spec.b
    growth_C = float(np.max(np.abs(spec.u_prime(t)) / (np.abs(t) + np.abs(t)**3)))
    assert 0 < growth_C < np.inf


def test_hypotheses_violation_without_mass_term():
    # b = 0: U(t) >= c t^2 fails for every c > 0, at the second well t = -1
    spec = PotentialSpec(kappa=1.0, b=0.0)
    t = _sample_nonzero()
    ratio = spec.u(t) / t**2
    violations = t[ratio <= 1e-12]
    assert violations.size > 0
    assert any(abs(x + 1.0) < 0.02 for x in violations)


def test_invalid_spec():
    with pytest.raises(ValueError):
        PotentialSpec(kappa=0.0)
    with pytest.raises(ValueError):
        PotentialSpec(kappa=1.0, b=-0.1)
