"""Scalar self-interaction U(t) = W(t) + b*t^2 with a quartic double well.

W(t) = kappa * t^2 * (1+t)^2 vanishes exactly at t = 0 and t = -1, the two
vacua of the phase-field description.  The mass term b*t^2 (b > 0) keeps U
strictly coercive away from the origin, which the minimization theory
requires; b may be taken as small as desired.  Normalizing the second well
to -1 loses no generality: any quartic double well maps onto this family by
rescaling field and coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import quad


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well plus mass term; immutable value object."""

    kappa: float = 1.0
    b: float = 1e-2

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and math.isfinite(self.b)):
            raise ValueError(
                f"kappa and b must be finite, got {self.kappa}, {self.b}")
        if not self.kappa > 0.0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.b < 0.0:
            raise ValueError(f"b must be nonnegative, got {self.b}")

    def w(self, t):
        t = np.asarray(t, dtype=float)
        return self.kappa * t**2 * (1.0 + t)**2

    def w_prime(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * self.kappa * t * (1.0 + t) * (1.0 + 2.0 * t)

    def w_second(self, t):
        t = np.asarray(t, dtype=float)
        return 2.0 * self.kappa * (1.0 + 6.0 * t + 6.0 * t**2)

    def u(self, t):
        t = np.asarray(t, dtype=float)
        return self.w(t) + self.b * t**2

    def u_prime(self, t):
        t = np.asarray(t, dtype=float)
        return self.w_prime(t) + 2.0 * self.b * t

    def u_second(self, t):
        return self.w_second(t) + 2.0 * self.b


def surface_constant(spec: PotentialSpec) -> float:
    """Interface energy per unit area, a = 2 * int_{-1}^{0} sqrt(W(s)) ds.

    For the quartic family this is sqrt(kappa)/3; computed by adaptive
    quadrature so the identity can be asserted independently in tests.
    """
    val, err = quad(lambda s: 2.0 * np.sqrt(spec.w(s)), -1.0, 0.0,
                    epsabs=1e-13, epsrel=1e-12)
    return float(val)


@dataclass(frozen=True)
class HypothesesReport:
    """Smallest admissible growth/coercivity constants on [-3, 3].

    holds_h2 is False when U fails U(t) >= c t^2 for every c > 0; the
    violation locus lists sample points where U(t)/t^2 is (numerically) zero.
    """

    growth_C: float          # |U'(t)| <= C(|t| + |t|^p)
    growth_p: float
    coercivity_c: float      # U(t) >= c t^2
    holds_h2: bool
    violations: tuple = ()


def check_hypotheses(spec: PotentialSpec, samples: int = 2001) -> HypothesesReport:
    """Sample U and U' on [-3, 3] and report the admissible constants.

    p = 3 always suffices for the quartic family; the interesting outcome is
    the coercivity constant c, which degenerates to 0 exactly when b = 0
    (the second well touches zero at t = -1).
    """
    t = np.linspace(-3.0, 3.0, samples)
    t = np.append(t[np.abs(t) > 1e-12], -1.0)    # well location, where U/t^2 dips
    p = 3.0
    growth_C = float(np.max(np.abs(spec.u_prime(t)) / (np.abs(t) + np.abs(t)**p)))
    ratio = spec.u(t) / t**2
    c = float(np.min(ratio))
    tol = 1e-12
    holds = c > tol
    violations = tuple(float(x) for x in t[ratio <= tol])
    return HypothesesReport(growth_C=growth_C, growth_p=p,
                            coercivity_c=max(c, 0.0), holds_h2=holds,
                            violations=violations)
