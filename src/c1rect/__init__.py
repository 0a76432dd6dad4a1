"""C1-conforming rectangular finite elements for the clamped biharmonic
problem: a bubble-enriched total-degree family and the tensor-product
Bogner-Fox-Schmit family, with a manufactured-solution convergence driver."""

from .assembly import (
    DimensionMismatch,
    LinearSystem,
    NotConverged,
    NotSPD,
    OutOfDomain,
    QuadratureRule,
    SolveResult,
    assemble,
    evaluate_solution,
    gauss_rule,
    solve,
)
from .bell import (
    BellBasis,
    SingularDofMatrix,
    bell_dofs,
    bell_labels,
    bell_nodal_basis,
    bell_space,
    select_bubbles,
)
from .elements import (
    ElementBasis,
    Family,
    MismatchedCounts,
    UnisolvencyReport,
    bfs_element,
    element_basis,
    enriched_dofs,
    enriched_nodal_basis,
    enriched_space,
    unisolvency_report,
)
from .mesh import DofMap, RectMesh, build_dof_map, build_mesh, clamped_flags
from .poly2d import DofFunctional, DofKind, Poly2D, functional_matrix
from .study import (
    Check,
    ExactSolution,
    StudyConfig,
    StudyReport,
    StudyRow,
    error_norms,
    exact_solution,
    expected_dim,
    interpolate,
    run_study,
    verify,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
