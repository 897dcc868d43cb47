"""MASSIF: FFT-based Hooke's-law stress-strain simulation (paper §2.2, §3.2).

MASSIF is a fixed-point iteration for the elasticity problem on a periodic
composite microstructure (Moulinec & Suquet 1998, the paper's [21]): each
iteration convolves the stress field with the Green's operator
``Gamma_hat`` (Eq 3) — the large 3D convolutions the paper accelerates.

Modules
-------
- :mod:`repro.massif.elasticity` — stiffness tensors, Voigt utilities,
  heterogeneous stiffness fields.
- :mod:`repro.massif.microstructure` — composite microstructure
  generators (inclusions, layers, Voronoi polycrystals).
- :mod:`repro.massif.green_operator` — the Gamma convolution step in both
  dense-spectral and pencil forms.
- :mod:`repro.massif.solver` — the reference inner loop (Algorithm 1).
- :mod:`repro.massif.lowcomm_solver` — the proposed inner loop
  (Algorithm 2): domain-local Gamma convolution with octree compression
  and one sparse accumulation exchange.
- :mod:`repro.massif.convergence` — equilibrium/strain-change residuals.
"""

from repro.massif.accelerated import (
    EyreMiltonSolver,
    reference_lame_eyre_milton,
)
from repro.massif.convergence import equilibrium_residual, strain_change
from repro.massif.elasticity import (
    StiffnessField,
    isotropic_stiffness,
    cubic_stiffness,
    voigt_from_tensor,
)
from repro.massif.green_operator import gamma_convolve_dense
from repro.massif.homogenization import (
    HomogenizationResult,
    bounds_respected,
    homogenize,
    reuss_bound,
    voigt_bound,
)
from repro.massif.lowcomm_solver import LowCommMassifSolver
from repro.massif.orientation import (
    polycrystal_stiffness_field,
    random_rotation,
    rotate_stiffness,
)
from repro.massif.microstructure import (
    sphere_inclusion,
    voronoi_polycrystal,
)
from repro.massif.solver import MassifSolver, SolverReport

__all__ = [
    "isotropic_stiffness",
    "cubic_stiffness",
    "voigt_from_tensor",
    "StiffnessField",
    "sphere_inclusion",
    "voronoi_polycrystal",
    "random_rotation",
    "rotate_stiffness",
    "polycrystal_stiffness_field",
    "gamma_convolve_dense",
    "homogenize",
    "HomogenizationResult",
    "voigt_bound",
    "reuss_bound",
    "bounds_respected",
    "MassifSolver",
    "SolverReport",
    "LowCommMassifSolver",
    "EyreMiltonSolver",
    "reference_lame_eyre_milton",
    "equilibrium_residual",
    "strain_change",
]
