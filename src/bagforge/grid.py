"""Radial meshes, quadrature and node families shared by all solvers.

The half-line [0, r_max] carries two interleaved node families:

* primal nodes   r_j = j*h, j = 1..n        (scalar field and v-component)
* staggered nodes r_{j+1/2} = (j+1/2)*h     (u-component), j = 0..n-1

Radial integrals are volume integrals, int f dx = 4*pi*int f(r) r^2 dr,
approximated by the composite trapezoid rule on primal samples and the
composite midpoint rule on staggered samples.  Both rules are second order.
Their volume weights (rule weight times r^2) are the grid's one weight
array per node family, which the Dirac operator is symmetrized by too;
`make_grid` refuses a mesh unless every one is a finite, normal, positive
double, and `check_mesh` refuses to mix meshes.  The r = 0 endpoint never
enters because the r^2 volume factor vanishes there.

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
    """Uniform radial mesh with primal/staggered nodes and volume weights.

    Immutable after construction, its arrays included (they refuse
    assignment); safe to share across parallel solves.  The volume weights
    are built once, by `make_grid`.  Grids compare by identity, so a grid
    can key a cache of arrays derived from it.
    """

    r_max: float
    n: int
    h: float
    r_primal: np.ndarray = field(repr=False)      # (n,)  j*h, j=1..n
    r_staggered: np.ndarray = field(repr=False)   # (n,)  (j+1/2)*h, j=0..n-1
    vol_primal: np.ndarray = field(repr=False)     # trapezoid weight * r^2
    vol_staggered: np.ndarray = field(repr=False)  # midpoint weight h * r^2

    def __post_init__(self):
        read_only(self.r_primal, self.r_staggered, self.vol_primal,
                  self.vol_staggered)


def read_only(*arrays: np.ndarray) -> None:
    """Make arrays that are built once and then shared refuse assignment."""
    for a in arrays:
        a.flags.writeable = False


def make_grid(r_max: float, n: int) -> RadialGrid:
    """Build the uniform grid on [0, r_max] with n cells.

    The one mesh rule (a model config refuses a bad mesh by building its
    grid): r_max finite and positive, n >= `MIN_NODES`, and every volume
    weight a normal double: the smallest, h^3/4 at r = h/2, no smaller than
    the smallest normal double, and h r_max^2, above the largest, finite.
    Callers resolving fields that decay like exp(-m r) should choose
    r_max >= 10/m; truncation is a zero boundary value at r_max.
    """
    if not 0.0 < r_max < np.inf:
        raise ValueError(f"r_max must be finite and positive, got {r_max}")
    if n < MIN_NODES:
        raise ValueError(f"need at least {MIN_NODES} cells, got {n}")
    h = r_max / n
    tiny = np.finfo(float).tiny     # Python float products: no numpy warning
    if not (0.25 * h * h * h >= tiny and h * r_max * r_max < np.inf):
        raise ValueError(
            f"r_max={r_max!r} with n={n} cells gives volume weights outside "
            f"the normal double range: need h^3/4 >= {tiny:.4g} and "
            f"h*r_max^2 finite (h={h!r})")
    r_primal = h * np.arange(1, n + 1)
    r_staggered = h * (np.arange(n) + 0.5)
    vol_primal = h * r_primal**2
    vol_primal[-1] *= 0.5           # trapezoid endpoint at r_max
    return RadialGrid(r_max=r_max, n=n, h=h, r_primal=r_primal,
                      r_staggered=r_staggered, vol_primal=vol_primal,
                      vol_staggered=h * r_staggered**2)


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
