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


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial mesh with primal/staggered nodes and quadrature weights.

    Immutable after construction, its arrays included (they refuse
    assignment); safe to share across parallel solves.  The volume weights
    are built once, with the grid.  Grids compare by identity, so a grid
    can key a cache of arrays derived from it.
    """

    r_max: float
    n: int
    h: float
    r_primal: np.ndarray = field(repr=False)      # (n,)  j*h, j=1..n
    r_staggered: np.ndarray = field(repr=False)   # (n,)  (j+1/2)*h, j=0..n-1
    w_primal: np.ndarray = field(repr=False)      # trapezoid weights (dr)
    w_staggered: np.ndarray = field(repr=False)   # midpoint weights (dr)
    #: volume weights w_j * r_j^2 of the primal quadrature (without 4*pi)
    vol_primal: np.ndarray = field(init=False, repr=False)
    vol_staggered: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vol_primal",
                           self.w_primal * self.r_primal**2)
        object.__setattr__(self, "vol_staggered",
                           self.w_staggered * self.r_staggered**2)
        read_only(self.r_primal, self.r_staggered, self.w_primal,
                  self.w_staggered, self.vol_primal, self.vol_staggered)


def read_only(*arrays: np.ndarray) -> None:
    """Make arrays that are built once and then shared refuse assignment."""
    for a in arrays:
        a.flags.writeable = False


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Build the uniform grid on [0, r_max] with n cells.

    The one check of a mesh's inputs (a model config refuses a bad mesh by
    building its grid): r_max finite and positive, n >= `MIN_NODES`.
    Callers resolving fields that decay like exp(-m r) should choose
    r_max >= 10/m; truncation is a zero boundary value at r_max.
    """
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
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


def check_mesh(grid: RadialGrid, other: RadialGrid, what: str) -> None:
    """Refuse (ValueError) `what` unless `other` has grid's n and r_max."""
    if (other.n, other.r_max) != (grid.n, grid.r_max):
        raise ValueError(f"{what} live on different grids: n={other.n}, "
                         f"r_max={other.r_max!r} against n={grid.n}, "
                         f"r_max={grid.r_max!r}")


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
