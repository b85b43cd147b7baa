"""Numerical solvers for relativistic hadron bag models in spherical symmetry.

Three related models share one radial toolbox:

* the soliton bag: quarks coupled to a smooth scalar field with a
  double-well self-interaction, solved by energy minimization;
* the sharp bag: the field replaced by a spherical cavity with surface and
  volume penalties, solved in closed form via two-zone Bessel matching;
* the confined cavity: the hard-wall limit of the sharp bag, recovered
  as the exterior mass grows without bound.

A diffuse-interface laboratory connects the first two: as the interface
width shrinks, minimizers and energies of the smooth model converge to the
sharp-bag optimum with surface tension a = 2 int sqrt(W).
"""

__version__ = "0.1.0"

from .bag import (BagConfig, BagReport, MITLimitResult, MITReport, bag_energy,
                  cavity_energy, minimize_bag, mit_ground, mit_limit)
from .dirac import (DegenerateEigenvalueError, RadialDiracOperator,
                    RadialField, RadialSpinor, SpectralResult,
                    assemble_hamiltonian, density, eigen_solve,
                    hellmann_feynman, supercharge_singular_values)
from .dispersion import (TwoZoneProblem, TwoZoneState, dirichlet_ball_eigenvalue,
                         eigenvalues, matching_function, mit_eigenvalue,
                         two_zone_state)
from .gamma import (GammaResult, GammaSweep, eps_energy, interface_width,
                    recovery_energy, run_sweep)
from .grid import RadialGrid, integrate, make_grid
from .potentials import PotentialSpec, surface_constant
from .soliton import (ModelParams, SolitonConfig, SolitonReport, energy,
                      gradient, initial_guess, minimize)

__all__ = [
    "BagConfig", "BagReport", "DegenerateEigenvalueError", "GammaResult",
    "GammaSweep", "MITLimitResult", "MITReport", "ModelParams",
    "PotentialSpec", "RadialDiracOperator", "RadialField", "RadialGrid",
    "RadialSpinor", "SolitonConfig", "SolitonReport", "SpectralResult",
    "TwoZoneProblem", "TwoZoneState", "assemble_hamiltonian", "bag_energy",
    "cavity_energy", "density", "dirichlet_ball_eigenvalue", "eigen_solve",
    "eigenvalues", "energy", "eps_energy", "gradient",
    "hellmann_feynman", "initial_guess", "integrate", "interface_width",
    "make_grid", "matching_function", "minimize", "minimize_bag",
    "mit_eigenvalue", "mit_ground", "mit_limit", "recovery_energy",
    "run_sweep", "supercharge_singular_values", "surface_constant",
    "two_zone_state",
]
