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
    lambda_matrices,
    lame_from_young_poisson,
    scale_parameters,
    scaled_from_direct,
)
from .spaces import SpaceSet, dof_counts, eval_basis, piola_map
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

__version__ = "0.1.0"

def __getattr__(name):
    # the manufactured solutions need sympy, which the solver and the time
    # loop do not: load them on first use
    if name in ("ManufacturedSolution", "default_manufactured"):
        from . import manufactured

        return getattr(manufactured, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
