"""Scalar self-interaction U(t) = W(t) + b*t^2 with a quartic double well.

W(t) = kappa * t^2 * (1+t)^2 vanishes exactly at t = 0 and t = -1, the two
vacua of the phase-field description.  The mass term b*t^2 makes b the
coercivity constant of U: U(t)/t^2 = kappa (1+t)^2 + b >= b, with equality
at the second well t = -1.  The existence theory of the minimization needs
that constant positive, b > 0, and b may be taken as small as desired.
b = 0 is accepted too: it is the pure double well, on which the
surface-tension checks run.  Normalizing the second well to -1 loses no
generality: any quartic double well maps onto this family by rescaling
field and coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import quad


@dataclass(frozen=True)
class PotentialSpec:
    """Quartic double well plus mass term; immutable value object.

    b is U's coercivity constant (U(t) >= b t^2, equality at t = -1), so
    the existence theory needs b > 0; b = 0, the pure double well of the
    surface-tension checks, is accepted.
    """

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
