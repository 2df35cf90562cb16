"""Trimmed serendipity and tensor-product finite elements on box meshes.

The package provides exact-arithmetic reference elements for the trimmed
serendipity family and the classical tensor-product family on squares and
cubes, structured box meshes with entity-based global numbering, sparse
assembly of mass/stiffness/mixed operators, direct and eigenvalue solvers,
and an experiment harness with a command-line interface.
"""

from .poly import PolyForm, QuadratureRule, exterior_derivative, gauss_rule
from .refelem import (
    CellTopology,
    Element,
    TENSOR_PRODUCT,
    TRIMMED_SERENDIPITY,
    build_element,
    coboundary_fit,
    element_by_name,
    element_dump,
    entity_dof_counts,
    tabulate,
)
from .mesh import BoxMesh, GlobalDofMap, boundary_dofs, build_box_mesh, global_numbering
from .assemble import (
    PushForward,
    SparseSystem,
    apply_dirichlet,
    assemble_bilinear,
    assemble_load,
    assemble_mixed_poisson,
    l2_error,
    nonzero_count,
)
from .solve import EigenResult, eig_shift_invert, solve_saddle, solve_spd
from .experiments import (
    ExperimentRow,
    convergence_rate,
    report_dofs,
    run_maxwell_eig,
    run_mixed_poisson,
    run_primal_poisson,
    run_projection,
)

__version__ = "0.1.0"
