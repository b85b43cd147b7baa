import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from bagforge import (TwoZoneProblem, dirichlet_ball_eigenvalue, eigenvalues,
                      matching_function, mit_eigenvalue, two_zone_state)
from bagforge.dispersion import (BALL_SERIES_X, ENDPOINT_GUARD, _bisect, _j0,
                                 _j1, _scan_roots, _x_to_lam, j1_zero,
                                 mit_matching, spherical_j0, spherical_j1)
from bagforge.verify import cavity_reference_root

# independent oracle for the massless confined cavity: tan x = x/(1-x)
X_MASSLESS = cavity_reference_root()


def test_bessel_small_argument():
    x = np.array([1e-8, 1e-5, 1e-3])
    assert np.allclose(spherical_j1(x), x / 3, rtol=1e-6)
    assert np.allclose(spherical_j0(x), 1.0, atol=1e-9)


def test_bessel_array_forms_equal_scalar_kernels():
    # both sides of the series switch at |x| = 1e-3, zero, a tiny and a
    # large argument
    edge = [math.nextafter(1e-3, 0.0), 1e-3, math.nextafter(1e-3, 1.0)]
    x = np.array([0.0, 1e-300, 1e4, 2.5, -2.5, *edge, *(-e for e in edge)])
    assert list(spherical_j0(x)) == [_j0(v) for v in x]
    assert list(spherical_j1(x)) == [_j1(v) for v in x]
    assert _j0(0.0) == 1.0 and _j1(0.0) == 0.0
    # numpy's NaN at infinity, where math.sin raises
    assert np.isnan(spherical_j0([math.inf, -math.inf])).all()
    assert np.isnan(spherical_j1([math.inf, -math.inf])).all()


def test_bessel_kernels_match_closed_forms():
    for x in np.concatenate([[1e-3], np.geomspace(1e-3, 1e3, 200),
                             np.linspace(0.5, 60.0, 200)]):
        x = float(x)
        assert abs(_j0(x) - math.sin(x) / x) <= 1e-15
        assert abs(_j1(x) - (math.sin(x) / x**2 - math.cos(x) / x)) <= 1e-15


def test_first_j1_zero():
    assert j1_zero(1) == pytest.approx(4.493409457909064, rel=1e-12)


def test_dirichlet_ladder():
    assert dirichlet_ball_eigenvalue(1) == pytest.approx(np.pi**2, rel=1e-12)
    # second level in the two-profile sector: first zero of j1 at 4.4934...
    assert dirichlet_ball_eigenvalue(2) == pytest.approx(4.493409457909064**2,
                                                         rel=1e-10)
    assert dirichlet_ball_eigenvalue(3) == pytest.approx((2 * np.pi) ** 2,
                                                         rel=1e-10)


def test_problem_validation():
    with pytest.raises(ValueError):
        TwoZoneProblem(mu_in=0.0, mu_out=1.0, R=0.0)
    with pytest.raises(ValueError):
        TwoZoneProblem(mu_in=1.0, mu_out=1.0, R=2.0)
    with pytest.raises(ValueError):
        TwoZoneProblem(mu_in=-2.0, mu_out=1.0, R=2.0)
    with pytest.raises(ValueError, match="count must be >= 1"):
        eigenvalues(TwoZoneProblem(mu_in=0.3, mu_out=1.0, R=4.0), 0)


def test_problem_rejects_nonfinite_inputs():
    # R = inf used to empty every bracket of the scan without ending it
    for mu_in, mu_out, R in ((0.5, 2.0, math.inf), (0.5, math.inf, 1.0),
                             (math.nan, 2.0, 1.0)):
        with pytest.raises(ValueError, match="finite"):
            TwoZoneProblem(mu_in=mu_in, mu_out=mu_out, R=R)


def test_large_radius_scan_skips_empty_brackets():
    # the scan starts one bracket below x_lo: the roots are those of a scan
    # from 0, and the 2e6 empty brackets below x_lo at R = 1e12 cost nothing.
    # Both values are the correctly rounded first level above the window's
    # lower guard, as a 60-digit solve of the same condition gives them
    lams = eigenvalues(TwoZoneProblem(mu_in=0.5, mu_out=2.0, R=1e10), 1)
    assert lams == [0.5000000020000138]
    t0 = time.perf_counter()
    lams = eigenvalues(TwoZoneProblem(mu_in=0.01, mu_out=2.0, R=1e12), 1)
    assert time.perf_counter() - t0 < 1.0
    assert lams == [0.010000002000000825]


@pytest.mark.parametrize("R, level", [(1e12, 0.5000000020000003),
                                      (1e14, 0.500000002),
                                      (1e16, 0.500000002)])
def test_level_near_window_edge_resolved_in_x(R, level):
    # near lam = mu_in one ulp of lam moves x = kR by ~1.2 at R = 1e12; the
    # quantization is evaluated in x itself, so the first level above the
    # lower guard is found at once.  The levels are those of a 60-digit
    # solve, correctly rounded
    t0 = time.perf_counter()
    lams = eigenvalues(TwoZoneProblem(mu_in=0.5, mu_out=2.0, R=R), 1)
    assert time.perf_counter() - t0 < 1.0
    assert lams == [level]


def test_scan_stops_where_brackets_coincide():
    # beyond x ~ 1e16 consecutive multiples of pi round together; the scan
    # raises instead of stepping through empty brackets one at a time
    t0 = time.perf_counter()
    with pytest.raises(RuntimeError, match="cannot separate"):
        eigenvalues(TwoZoneProblem(mu_in=0.5, mu_out=2.0, R=1e22), 1)
    with pytest.raises(RuntimeError, match="cannot separate"):
        _scan_roots(lambda x: 1.0, 1, 1e299, 1e300, 1e-9)
    assert time.perf_counter() - t0 < 1.0


def test_matching_window_enforced():
    # the window in x = kR is (0, R sqrt(mu_out^2 - mu_in^2)) = (0, 2.939...)
    p = TwoZoneProblem(mu_in=0.2, mu_out=1.0, R=3.0)
    x_max = 3.0 * math.sqrt(0.96)
    for x in (0.0, -0.1, x_max, 3.0, math.nan):
        with pytest.raises(ValueError, match="outside"):
            matching_function(p, x)
    assert math.isfinite(matching_function(p, 0.1))
    assert math.isfinite(matching_function(p, 2.9))


def test_vanishing_well_has_no_root():
    p = TwoZoneProblem(mu_in=0.999999, mu_out=1.0, R=1.0)
    assert eigenvalues(p, 1) == []


def test_hard_wall_surrogate_matches_limit_equation():
    # mu_out -> inf degenerates the matching to j1(x) = j0(x)
    p = TwoZoneProblem(mu_in=0.0, mu_out=1e6, R=1.0)
    lams = eigenvalues(p, 1)
    assert len(lams) == 1
    assert lams[0] * p.R == pytest.approx(X_MASSLESS, abs=1e-3)


def test_narrow_shallow_well_loses_bound_state():
    p = TwoZoneProblem(mu_in=0.5, mu_out=1.0, R=0.05)
    assert eigenvalues(p, 1) == []


def test_ladder_monotone_in_index_and_radius():
    p5 = TwoZoneProblem(mu_in=0.0, mu_out=1.0, R=5.0)
    lams5 = eigenvalues(p5, 2)
    assert len(lams5) == 2
    assert lams5[0] < lams5[1]
    p8 = TwoZoneProblem(mu_in=0.0, mu_out=1.0, R=8.0)
    lams8 = eigenvalues(p8, 2)
    assert lams8[0] < lams5[0]
    assert lams8[1] < lams5[1]


def test_mit_massless_ground():
    lam = mit_eigenvalue(1.0, 1e-8, 1)
    assert lam == pytest.approx(X_MASSLESS, abs=1e-6)
    assert lam == pytest.approx(2.0428, abs=1e-3)


def test_mit_scaling_and_radius():
    # massless equation is scale free: lambda ~ 1/R
    assert mit_eigenvalue(2.0, 1e-8, 1) == pytest.approx(X_MASSLESS / 2,
                                                         abs=1e-6)
    # large cavity: eigenvalue decays to the mass from above
    assert mit_eigenvalue(1.0, 1.0, 1) > 1.0
    assert mit_eigenvalue(200.0, 1.0, 1) == pytest.approx(1.0, abs=2e-2)
    assert mit_eigenvalue(1.0, 1.0, 2) > mit_eigenvalue(1.0, 1.0, 1)


def test_mit_limit_consistency():
    # two-zone levels approach the confined level monotonically as the
    # exterior mass doubles, with at most ~0.6 error ratio per doubling
    R, m = 2.0, 1.0
    lam_wall = mit_eigenvalue(R, m, 1)
    errs = []
    for j in range(1, 9):
        p = TwoZoneProblem(mu_in=m, mu_out=m * 2.0**j, R=R)
        lams = eigenvalues(p, 1)
        assert len(lams) == 1
        errs.append(abs(lams[0] - lam_wall))
    assert all(e2 < e1 for e1, e2 in zip(errs, errs[1:]))
    ratios = [e2 / e1 for e1, e2 in zip(errs[2:], errs[3:])]
    assert max(ratios) <= 0.6


def test_state_ode_residual_and_normalization():
    p = TwoZoneProblem(mu_in=0.3, mu_out=1.0, R=4.0)
    state = two_zone_state(p, eigenvalues(p, 1)[0])
    r = np.linspace(0.3, 3.6, 40)
    assert state.ode_residual(r) < 1e-10
    # the interior solution holds strictly inside the cavity only
    for outside in ([0.3, 4.0], [5.0], [0.0]):
        with pytest.raises(ValueError, match="strictly inside"):
            state.ode_residual(np.array(outside))
    # normalization: quadrature of the profile on a fine grid
    rr = np.linspace(1e-6, 60.0, 400000)
    v, u = state.profiles(rr)
    norm = 4 * np.pi * np.trapezoid((v**2 + u**2) * rr**2, rr)
    assert norm == pytest.approx(1.0, rel=1e-5)
    # boundary continuity of u/v at an eigenvalue
    eps = 1e-9
    vin, uin = state.profiles(p.R - eps)
    vout, uout = state.profiles(p.R + eps)
    assert uin / vin == pytest.approx(uout / vout, rel=1e-5)


def _stable_j1(t):
    # sin t/t^2 - cos t/t cancels for small t: its Taylor series
    # t sum_n (-t^2/2)^n / (n! (2n+3)!!) below t = 0.5
    if t >= 0.5:
        return math.sin(t) / (t * t) - math.cos(t) / t
    return t * math.fsum((-t * t / 2.0) ** n / (
        math.factorial(n) * math.prod(range(3, 2 * n + 4, 2)))
        for n in range(10))


def _quadrature_norm(p, lam):
    """sqrt(4 pi int (v^2 + u^2) r^2 dr) of the profile with v = j0(kr)
    inside, by adaptive quadrature: the interior in t = kr, in pieces of
    10, the exterior in z = kap (r - R)."""
    k = math.sqrt(lam**2 - p.mu_in**2)
    kap = math.sqrt(p.mu_out**2 - lam**2)
    s_in2 = (lam - p.mu_in) / (lam + p.mu_in)
    s_out2 = (p.mu_out - lam) / (p.mu_out + lam)
    x, yR = k * p.R, kap * p.R
    ball = lambda t: math.sin(t) ** 2 + s_in2 * (t * _stable_j1(t)) ** 2
    edges = np.linspace(0.0, x, int(x / 10.0) + 2)
    inner = math.fsum(quad(ball, a, b, epsabs=0.0, epsrel=1e-13)[0]
                      for a, b in zip(edges, edges[1:])) / k**3
    # v = v(R) (yR/y) e^-z and u = s_out v (1 + 1/y), y = yR + z; the
    # 1/y^2 peak is yR wide, so decades of z up to 1, then the tail
    tail = lambda z: math.exp(-2.0 * z) * (
        1.0 + s_out2 * (1.0 + 1.0 / (yR + z)) ** 2)
    cuts = ([0.0] + [yR * 10.0**j for j in
                     range(max(0, math.ceil(-math.log10(yR))))] + [math.inf])
    outer = (math.sin(x) / x) ** 2 * yR**2 / kap**3 * math.fsum(
        quad(tail, a, b, epsabs=0.0, epsrel=1e-13)[0]
        for a, b in zip(cuts, cuts[1:]))
    return math.sqrt(4.0 * math.pi * (inner + outer))


@pytest.mark.parametrize("mu_in, mu_out", [
    (-0.5, 1.0), (0.0, 1.0), (0.5, 1.0), (-1.0, 1e6), (1.0, 1e6),
    (0.0, 3e3)])
def test_state_normalization_matches_quadrature(mu_in, mu_out):
    # the closed-form normalization at levels across the window, none of
    # them a root, with x = kR from 1e-6 to 1e3 on both sides of the
    # series threshold
    lo = abs(mu_in)
    for frac in (1e-3, 0.5, 0.99):
        lam = lo + frac * (mu_out - lo)
        k = math.sqrt(lam * lam - mu_in * mu_in)
        for x in (1e-6, 1e-2, 1.5, 0.99 * BALL_SERIES_X,
                  1.01 * BALL_SERIES_X, 30.0, 1e3):
            p = TwoZoneProblem(mu_in=mu_in, mu_out=mu_out, R=x / k)
            state = two_zone_state(p, lam)
            norm = _quadrature_norm(p, lam)
            assert state.c_in == pytest.approx(1.0 / norm, rel=1e-12,
                                               abs=0.0)
            assert state.v_wall == pytest.approx(_j0(k * p.R) / norm,
                                                 rel=1e-12, abs=0.0)


@pytest.mark.filterwarnings("error")     # no inf/inf at r = inf
def test_profiles_vanish_at_infinity():
    p = TwoZoneProblem(mu_in=0.3, mu_out=1.0, R=4.0)
    state = two_zone_state(p, eigenvalues(p, 1)[0])
    v, u = state.profiles([1.0, 6.0, math.inf])
    assert (v[2], u[2]) == (0.0, 0.0)
    assert v[:2].tolist() == [0.07813263690594426, 0.004445654088011179]
    assert u[:2].tolist() == [0.008298607012975131, 0.0026387195565109765]


def test_boundary_ratio_tends_to_one():
    R, m = 1.5, 1.0
    ratios = []
    for j in (2, 5, 8, 11):
        p = TwoZoneProblem(mu_in=m, mu_out=m * 2.0**j, R=R)
        ratios.append(two_zone_state(p, eigenvalues(p, 1)[0]).boundary_ratio())
    assert all(abs(r - 1) > abs(r2 - 1) for r, r2 in zip(ratios, ratios[1:]))
    assert ratios[-1] == pytest.approx(1.0, abs=2e-3)


def test_bisect_nan_without_sign_change_and_floor():
    assert math.isnan(_bisect(lambda x: x * x + 1.0, -1.0, 2.0))
    # near zero the floor sets the bracket width: 1e-3 * 1 stops after a
    # few halvings, a zero floor resolves the root to 1e-3 relative
    f = lambda x: x - 1e-6
    coarse = _bisect(f, 0.0, 1e-3, rtol=1e-3)
    fine = _bisect(f, 0.0, 1e-3, rtol=1e-3, floor=0.0)
    assert abs(coarse - 1e-6) > 1e-6
    assert fine == pytest.approx(1e-6, rel=1e-3)


def test_scan_roots_takes_exact_zero_sample():
    # f vanishes only at the sample xs[25] and never changes sign, so only
    # the exact-zero rule finds the root
    xs = np.linspace(0.5, 3.0, 128)
    root = xs[25]
    roots = _scan_roots(lambda x: 0.0 if x == root else 1.0, 1, 0.5, 3.0,
                        1e-12)
    assert roots == [root]


def _in_order_scan(f, count, x_lo, x_hi, guard):
    """The reference scan: every sample of every branch, in order."""
    roots = []
    branch = max(0, math.floor(x_lo / math.pi) - 1)
    while branch * math.pi < x_hi and len(roots) < count:
        a = max(branch * math.pi + guard, x_lo)
        b = min((branch + 1) * math.pi - guard, x_hi)
        branch += 1
        if b <= a:
            continue
        xs = np.linspace(a, b, 128).tolist()
        x0, f0 = xs[0], f(xs[0])
        for x1 in xs[1:]:
            f1 = f(x1)
            if math.isfinite(f0) and math.isfinite(f1):
                if f0 == 0.0:
                    roots.append(x0)
                elif f0 * f1 < 0.0:
                    roots.append(_bisect(f, x0, x1))
                if len(roots) == count:
                    break
            x0, f0 = x1, f1
    return roots


def _window_in_x(p):
    guard = ENDPOINT_GUARD * max(1.0, p.mu_out)
    lam_lo, lam_hi = abs(p.mu_in) + guard, p.mu_out - guard
    return (p.R * math.sqrt(lam_lo**2 - p.mu_in**2),
            p.R * math.sqrt(lam_hi**2 - p.mu_in**2))


def test_branch_search_finds_the_in_order_roots():
    # with mu_in >= 0 each branch holds at most one root, a sign change, so
    # sampling the branch ends and bisecting the sample grid finds the
    # roots of sampling every branch in order, bit for bit
    rng = np.random.default_rng(33)
    for _ in range(300):
        mu_out = 10.0 ** rng.uniform(-1.0, 3.0)
        p = TwoZoneProblem(mu_in=rng.uniform(0.0, 0.99 * mu_out),
                           mu_out=mu_out, R=10.0 ** rng.uniform(-2.0, 1.5))
        count = int(rng.integers(1, 4))
        f = lambda x: matching_function(p, x)
        ref = _in_order_scan(f, count, *_window_in_x(p), ENDPOINT_GUARD)
        assert _scan_roots(f, count, *_window_in_x(p), ENDPOINT_GUARD,
                           one_per_branch=True) == ref
        assert eigenvalues(p, count) == [_x_to_lam(p.mu_in, p.R, x)
                                         for x in ref]


def test_negative_interior_mass_is_scanned_in_order(monkeypatch):
    # for mu_in < 0 the one-root-per-branch proof does not hold
    import bagforge.dispersion as dispersion
    searched = []
    inner = dispersion._branch_root
    monkeypatch.setattr(dispersion, "_branch_root",
                        lambda f, xs: searched.append(xs) or inner(f, xs))
    p = TwoZoneProblem(mu_in=-0.6, mu_out=1.0, R=15.0)
    ref = _in_order_scan(lambda x: matching_function(p, x), 3,
                         *_window_in_x(p), ENDPOINT_GUARD)
    lams = eigenvalues(p, 3)
    assert len(lams) == 3 and not searched
    assert lams == [_x_to_lam(p.mu_in, p.R, x) for x in ref]


def test_mit_level_is_the_root_on_its_branch():
    # level k is the one root on branch k - 1, the k-th root of a scan from 0
    rng = np.random.default_rng(34)
    for _ in range(200):
        R = 10.0 ** rng.uniform(-2.0, 1.5)
        m = 0.0 if rng.uniform() < 0.2 else 10.0 ** rng.uniform(-3.0, 3.0)
        k = int(rng.integers(1, 41))
        ref = _in_order_scan(lambda x: mit_matching(R, m, x), k, 0.0,
                             (k + 65) * math.pi, 1e-12)
        assert mit_eigenvalue(R, m, k) == _x_to_lam(m, R, ref[k - 1])


def test_mit_eigenvalue_validation():
    assert mit_eigenvalue(1.0, 0.0, 1) == pytest.approx(X_MASSLESS, abs=1e-6)
    for R, m in ((0.0, 1.0), (math.inf, 1.0), (math.nan, 1.0),
                 (1.0, -1.0), (1.0, math.nan), (1.0, math.inf)):
        with pytest.raises(ValueError):
            mit_eigenvalue(R, m, 1)
    for level in (lambda: mit_eigenvalue(1.0, 1.0, 0),
                  lambda: dirichlet_ball_eigenvalue(0)):
        with pytest.raises(ValueError, match="index starts at 1"):
            level()


def test_mit_levels_ascend_across_sign_changes():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.settings(derandomize=True, max_examples=40, deadline=None)
    @hyp.given(R=st.floats(1e-2, 50.0), m=st.floats(0.0, 20.0))
    def check(R, m):
        lams = [mit_eigenvalue(R, m, k) for k in (1, 2, 3)]
        assert m < lams[0] < lams[1] < lams[2]
        for lam in lams:
            x = R * math.sqrt(lam * lam - m * m)
            d = 1e-7 * x
            assert mit_matching(R, m, x - d) * mit_matching(R, m, x + d) < 0

    check()
