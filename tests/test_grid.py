import math
import re

import numpy as np
import pytest

from bagforge import integrate, make_grid


def test_basic_fields():
    g = make_grid(1.0, 16)
    assert g.h == pytest.approx(0.0625)
    assert g.r_primal[7] == pytest.approx(0.5)       # r_8 = 8*h
    assert g.r_primal[0] > 0
    assert np.all(np.diff(g.r_primal) > 0)
    assert np.all(np.diff(g.r_staggered) > 0)
    assert np.all(g.vol_primal > 0) and np.all(g.vol_staggered > 0)


def test_preconditions():
    with pytest.raises(ValueError):
        make_grid(0.0, 100)
    with pytest.raises(ValueError):
        make_grid(-1.0, 100)
    with pytest.raises(ValueError):
        make_grid(1.0, 8)
    # an infinite r_max would give a mesh whose h, radii and volumes are inf
    for r_max in (math.inf, math.nan):
        with pytest.raises(ValueError, match="r_max must be finite"):
            make_grid(r_max, 100)
    # finite positive r_max whose volume weights underflow (h^3/4 below the
    # smallest normal double; h is 0 at 5e-324) or overflow (h r_max^2)
    for r_max, n in ((5e-324, 800), (1e-300, 64), (1e-120, 64), (1e120, 64),
                     (1e300, 64)):
        with pytest.raises(ValueError,
                           match=re.escape(f"r_max={r_max!r} with n={n} ")):
            make_grid(r_max, n)
    # r_max = 1e100 on 64 cells keeps every weight a normal double
    assert np.all(np.isfinite(make_grid(1e100, 64).vol_primal))


def test_r_squared_quadrature_matches_rule():
    # the composite rules reproduce their own truncation model on f=1:
    # trapezoid and midpoint errors for int r^2 dr are +- r_max h^2 / (12, 24)
    r_max, n = 10.0, 1000
    g = make_grid(r_max, n)
    exact = 4 * np.pi * r_max**3 / 3
    got_p = integrate(g, np.ones(n), "primal")
    got_s = integrate(g, np.ones(n), "staggered")
    corr_trap = 4 * np.pi * r_max * g.h**2 / 6.0      # Euler-Maclaurin, f''=2
    corr_mid = -4 * np.pi * r_max * g.h**2 / 12.0
    assert abs(got_p - exact) / exact < 1e-6
    assert abs(got_s - exact) / exact < 1e-6
    assert abs(got_p - (exact + corr_trap)) < 1e-12 * exact
    assert abs(got_s - (exact + corr_mid)) < 1e-12 * exact


def test_indicator_ball_volume():
    g = make_grid(10.0, 1000)
    f = np.where(g.r_primal <= 1.0, 1.0, 0.0)
    vol = 4 * np.pi / 3
    # step integrand: first-order truncation, bounded by the surface shell
    assert abs(integrate(g, f) - vol) <= 4 * np.pi * g.h


def test_zero_integrand():
    g = make_grid(5.0, 64)
    assert integrate(g, np.zeros(64)) == 0.0
    assert integrate(g, np.zeros(64), "staggered") == 0.0


def test_analytic_oracle_sin():
    # int_0^1 sin(pi r)/r * r^2 dr = 1/pi by the antiderivative
    g = make_grid(1.0, 2000)
    f = np.sin(np.pi * g.r_primal) / g.r_primal
    val = integrate(g, f)
    assert val == pytest.approx(4 * np.pi / np.pi, rel=1e-6)
    fs = np.sin(np.pi * g.r_staggered) / g.r_staggered
    assert integrate(g, fs, "staggered") == pytest.approx(4.0, rel=1e-6)


def test_convergence_order_smooth():
    exact = 4.0  # 4 pi / pi from the sine oracle above
    errs = []
    for n in (250, 500, 1000, 2000):
        g = make_grid(1.0, n)
        f = np.sin(np.pi * g.r_primal) / g.r_primal
        errs.append(abs(integrate(g, f) - exact))
    rates = [np.log2(errs[i] / errs[i + 1]) for i in range(3)]
    assert min(rates) >= 1.9


def test_length_mismatch_and_family():
    g = make_grid(1.0, 32)
    with pytest.raises(ValueError):
        integrate(g, np.ones(31))
    with pytest.raises(ValueError):
        integrate(g, np.ones(32), "nodal")


def test_grid_arrays_are_built_once_and_refuse_assignment():
    g = make_grid(1.0, 16)
    assert g.vol_primal is g.vol_primal
    # trapezoid weights h (h/2 at r_max) and midpoint weights h, times r^2
    w_primal = np.full(16, g.h)
    w_primal[-1] = 0.5 * g.h
    assert np.array_equal(g.vol_primal, w_primal * g.r_primal**2)
    assert np.array_equal(g.vol_staggered,
                          np.full(16, g.h) * g.r_staggered**2)
    for name in ("r_primal", "r_staggered", "vol_primal", "vol_staggered"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(g, name)[0] = 1.0
