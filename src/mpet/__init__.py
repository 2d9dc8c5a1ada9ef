"""Parameter-robust HDG / hybrid-mixed solver for multiple-network poroelasticity.

The package discretizes the quasi-static multi-network poroelasticity
equations with an H(div)-conforming hybridized DG method for the
mechanics and a hybrid mixed method for the network flows, and solves the
resulting symmetric indefinite systems with preconditioned MinRes using
norm-equivalent block preconditioners that are robust across the full
parameter range.
"""

from .mesh import Mesh, MeshError, build_affine_map, generate_annulus, generate_unit_square
from .params import (
    PhysicalParameters,
    ScaledParameters,
    lame_from_young_poisson,
    scale_parameters,
    scaled_from_direct,
)
from .spaces import SpaceSet, eval_basis, piola_map
from .assembly import (
    BlockSystem,
    BoundaryConditionSet,
    apply_boundary_conditions,
    assemble_kernels,
    assemble_volume_rhs,
    build_block_system,
)
from .solver import (
    PreconditionerError,
    SolveReport,
    build_preconditioner,
    condense_velocity,
    minres,
    solve,
)
from .diagnostics import (
    NormAssembler,
    conservation_residual,
    estimate_inf_sup,
    spectrum_ends,
)
from .timeloop import Scenario, State, TimeStepper, brain_analog_scenario, windowed_mean
from .manufactured import ManufacturedFields, default_manufactured

__version__ = "0.1.0"
