"""Radial meshes, quadrature and node families shared by all solvers.

The half-line [0, r_max] carries two interleaved node families:

* primal nodes   r_j = j*h, j = 1..n        (scalar field and v-component)
* staggered nodes r_{j+1/2} = (j+1/2)*h     (u-component), j = 0..n-1

Radial integrals are volume integrals, int f dx = 4*pi*int f(r) r^2 dr,
approximated by the composite trapezoid rule on primal samples and the
composite midpoint rule on staggered samples.  Both rules are second order;
all weights are positive.  The r = 0 endpoint never enters because the r^2
volume factor vanishes there.

The discretization kernels shared by every field solver live here too: the
staggered difference and midpoint average of a primal field (both land on
the n-1 inner staggered nodes) and the adjoint scatters of the two, which
carry staggered-node sensitivities back to the free primal nodes.

No solver calls adaptive quadrature (`quad`): the state normalization and
the surface constant are closed forms.  It stays because the benchmark
tracer counts calls through it (`perfbench/spans.py`, QUAD_HOMES).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

FOUR_PI = 4.0 * np.pi

MIN_NODES = 16


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial mesh with primal/staggered nodes and quadrature weights.

    Immutable after construction; safe to share across parallel solves.
    """

    r_max: float
    n: int
    h: float
    r_primal: np.ndarray = field(repr=False)      # (n,)  j*h, j=1..n
    r_staggered: np.ndarray = field(repr=False)   # (n,)  (j+1/2)*h, j=0..n-1
    w_primal: np.ndarray = field(repr=False)      # trapezoid weights (dr)
    w_staggered: np.ndarray = field(repr=False)   # midpoint weights (dr)

    @property
    def vol_primal(self) -> np.ndarray:
        """Volume weights w_j * r_j^2 of the primal quadrature (without 4*pi)."""
        return self.w_primal * self.r_primal**2

    @property
    def vol_staggered(self) -> np.ndarray:
        return self.w_staggered * self.r_staggered**2


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Build the uniform grid on [0, r_max] with n cells.

    Callers resolving fields that decay like exp(-m r) should choose
    r_max >= 10/m; truncation is a zero boundary value at r_max.
    """
    if not r_max > 0.0:
        raise ValueError(f"r_max must be positive, got {r_max}")
    if n < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} cells, got {n}")
    h = r_max / n
    r_primal = h * np.arange(1, n + 1)
    r_staggered = h * (np.arange(n) + 0.5)
    w_primal = np.full(n, h)
    w_primal[-1] = 0.5 * h          # trapezoid endpoint at r_max
    w_staggered = np.full(n, h)
    return RadialGrid(r_max=r_max, n=n, h=h, r_primal=r_primal,
                      r_staggered=r_staggered, w_primal=w_primal,
                      w_staggered=w_staggered)


def integrate(grid: RadialGrid, samples: np.ndarray, family: str = "primal") -> float:
    """Quadrature of 4*pi * int f(r) r^2 dr for samples on one node family.

    Both families hold n samples, so the family must be named explicitly.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != (grid.n,):
        raise ValueError(
            f"sample count {samples.shape} does not match node family size ({grid.n},)")
    if family == "primal":
        vol = grid.vol_primal
    elif family == "staggered":
        vol = grid.vol_staggered
    else:
        raise ValueError(f"unknown node family {family!r}")
    return FOUR_PI * float(np.dot(vol, samples))


def forward_diff(grid: RadialGrid, values: np.ndarray) -> np.ndarray:
    """Staggered derivative (phi_{j+1} - phi_j)/h of a primal field at the
    inner staggered nodes r_{3/2}..r_{n-1/2}."""
    return (values[1:] - values[:-1]) / grid.h


def midpoints(values: np.ndarray) -> np.ndarray:
    """Average of adjacent primal samples at the inner staggered nodes."""
    return 0.5 * (values[:-1] + values[1:])


def scatter_diff(acc: np.ndarray, f: np.ndarray) -> None:
    """acc += D^T f for the difference (phi_{j+1} - phi_j), restricted to the
    free primal nodes (the pinned node at r_max drops out); in place."""
    acc += -f
    acc[1:] += f[:-1]


def scatter_mid(acc: np.ndarray, f: np.ndarray) -> None:
    """acc += S^T f for the sum (phi_j + phi_{j+1}), restricted to the free
    primal nodes; in place.  Midpoint sensitivities carry their own 1/2."""
    acc += f
    acc[1:] += f[:-1]


def tanh_step(z):
    """Interface profile -(1 - tanh z)/2: -1 deep inside, 0 far outside."""
    return -(1.0 - np.tanh(z)) / 2.0


def quad(func, a: float, b: float, **kwargs):
    """`scipy.integrate.quad`, imported on first call; kept, uncalled, for
    the benchmark tracer's QUAD_HOMES (`perfbench/spans.py`)."""
    from scipy.integrate import quad as adaptive_quad
    return adaptive_quad(func, a, b, **kwargs)
