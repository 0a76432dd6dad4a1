"""Quadrature, stiffness/load assembly for the bilinear form (lap u, lap v),
strong elimination of clamped DOFs, SPD solvers, and evaluation of finite
element functions.

Scaling rule: with the map x = x0 + h xi, the physical nodal function of a
DOF of derivative order o is h^o times the reference one.  So a stiffness
entry picks up h^(o_m + o_n - 2), a load entry h^(o_m + 2), and evaluation
multiplies physical DOF values by h^o and divides a (d_x, d_y) derivative by
h^(d_x + d_y).  On a uniform mesh every element shares the scaled reference
stiffness block and one tabulation per evaluation, so assembly and
evaluation are array operations over (element, local DOF).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse

from .elements import ElementBasis
from .mesh import DofMap, RectMesh
from .poly2d import FloatArray


class DimensionMismatch(ValueError):
    """DOF map and element basis disagree on the local DOF count."""


class NotConverged(RuntimeError):
    def __init__(self, iterations: int, residual: float):
        super().__init__(f"no convergence after {iterations} iterations "
                         f"(relative residual {residual:.3e})")
        self.iterations = iterations
        self.residual = residual


class NotSPD(RuntimeError):
    """A direction of nonpositive curvature appeared; system is not SPD."""


class OutOfDomain(ValueError):
    """Evaluation point lies outside the unit square."""


@dataclass(frozen=True, eq=False)
class QuadratureRule:
    """Tensor Gauss-Legendre rule on [0,1]^2; weights are positive, sum 1."""

    points: FloatArray   # (m*m, 2)
    weights: FloatArray  # (m*m,)
    points_per_axis: int


def gauss_rule(m: int) -> QuadratureRule:
    """m-point-per-direction tensor rule, exact on Q_(2m-1)."""
    if not 1 <= m <= 32:
        raise ValueError("points per direction must be in 1..32")
    nodes, weights = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    X, Y = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    return QuadratureRule(
        points=np.column_stack([X.ravel(), Y.ravel()]),
        weights=(WX * WY).ravel(),
        points_per_axis=m,
    )


@dataclass(eq=False)
class LinearSystem:
    """Reduced SPD system over the free (unconstrained) DOFs."""

    matrix: scipy.sparse.csr_matrix
    rhs: FloatArray
    free_dofs: np.ndarray    # free slot -> global DOF
    free_index: np.ndarray   # global DOF -> free slot, -1 if constrained
    total: int               # global DOF count including constrained

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    def symmetry_error(self) -> float:
        if self.n_free == 0:
            return 0.0
        d = self.matrix - self.matrix.T
        scale = max(np.abs(self.matrix.data).max(), 1e-300)
        return float(np.abs(d.data).max() / scale) if d.nnz else 0.0


def default_stiffness_rule(k: int) -> QuadratureRule:
    """k+1 points per direction: exact for the bidegree <= 2k integrand."""
    return gauss_rule(k + 1)


def default_load_rule(k: int) -> QuadratureRule:
    """k+6 points per direction, enough for the trigonometric data."""
    return gauss_rule(k + 6)


def assemble(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    f: Callable[[FloatArray, FloatArray], FloatArray],
    quad_stiff: QuadratureRule | None = None,
    quad_load: QuadratureRule | None = None,
) -> LinearSystem:
    """Assemble the clamped Galerkin system for lap^2 u = f.

    ``f`` must accept numpy arrays.  Constrained rows and columns are
    eliminated (homogeneous data, so no right-hand-side correction).
    """
    if dof_map.local_to_global.shape[1] != basis.dim:
        raise DimensionMismatch(
            f"map has {dof_map.local_to_global.shape[1]} local slots, "
            f"element has {basis.dim}")
    qs = quad_stiff if quad_stiff is not None else default_stiffness_rule(basis.k)
    ql = quad_load if quad_load is not None else default_load_rule(basis.k)
    h = mesh.h

    lap = basis.tabulate(qs.points, (2, 0)) + basis.tabulate(qs.points, (0, 2))
    ref_stiff = (lap * qs.weights[:, None]).T @ lap
    scale = h ** basis.deriv_orders.astype(float)
    elem_stiff = ref_stiff * np.outer(scale, scale) / h**2

    load_vals = basis.tabulate(ql.points, (0, 0))
    load_scale = scale * h**2

    free_index = -np.ones(dof_map.total, dtype=np.int64)
    free_dofs = np.flatnonzero(~dof_map.is_boundary)
    free_index[free_dofs] = np.arange(len(free_dofs))

    # (element, local) slots; pairs of free slots in element-major, row-major
    # order, so duplicate entries are summed exactly as a per-element loop would
    fslots = free_index[dof_map.local_to_global]
    keep = fslots >= 0
    pairs = keep[:, :, None] & keep[:, None, :]
    shape = pairs.shape
    rows = np.broadcast_to(fslots[:, :, None], shape)[pairs]
    cols = np.broadcast_to(fslots[:, None, :], shape)[pairs]
    vals = np.broadcast_to(elem_stiff, shape)[pairs]

    x0, y0 = mesh.element_corner(np.arange(mesh.n_elements))
    fq = np.asarray(f(x0[:, None] + h * ql.points[:, 0],
                      y0[:, None] + h * ql.points[:, 1]), dtype=float)
    load = load_scale * ((fq * ql.weights) @ load_vals)
    rhs = np.bincount(fslots[keep], weights=load[keep], minlength=len(free_dofs))

    n = len(free_dofs)
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return LinearSystem(matrix=matrix, rhs=rhs, free_dofs=free_dofs,
                        free_index=free_index, total=dof_map.total)


@dataclass
class SolveResult:
    coeffs: FloatArray  # over all global DOFs, constrained slots zero
    iterations: int
    residual: float
    method: str


#: free-system size up to which "auto" picks the dense direct path
DIRECT_LIMIT = 6000

SOLVER_METHODS = ("auto", "cg", "direct")


def _expand(system: LinearSystem, x: FloatArray) -> FloatArray:
    full = np.zeros(system.total)
    full[system.free_dofs] = x
    return full


def _solve_direct(system: LinearSystem) -> FloatArray:
    """Dense Cholesky with symmetric diagonal equilibration.

    Value and mixed-derivative DOFs scale like h^0 vs h^2, which alone costs
    ~h^-4 in condition number at high degree; equilibrating by the diagonal
    removes that spread before factorization.
    """
    dense = system.matrix.toarray()
    d = dense.diagonal().copy()
    if np.any(d <= 0.0):
        raise NotSPD("nonpositive diagonal entry")
    s = 1.0 / np.sqrt(d)
    scaled = dense * np.outer(s, s)
    try:
        factor = scipy.linalg.cho_factor(scaled, check_finite=False)
    except scipy.linalg.LinAlgError as err:
        raise NotSPD(str(err)) from err
    y = scipy.linalg.cho_solve(factor, s * system.rhs, check_finite=False)
    return s * y


def _solve_pcg(system: LinearSystem, rel_tol: float) -> tuple[FloatArray, int, float]:
    """Jacobi-preconditioned conjugate gradients on the true residual."""
    A = system.matrix
    b = system.rhs
    norm_b = float(np.linalg.norm(b))
    if norm_b == 0.0:
        return np.zeros_like(b), 0, 0.0
    inv_diag = 1.0 / A.diagonal()
    if np.any(~np.isfinite(inv_diag)) or np.any(A.diagonal() <= 0.0):
        raise NotSPD("nonpositive diagonal entry")
    max_iter = 50 * A.shape[0]
    x = np.zeros_like(b)
    r = b.copy()
    z = inv_diag * r
    p = z.copy()
    rz = float(r @ z)
    norm_r = norm_b
    for it in range(1, max_iter + 1):
        Ap = A @ p
        pAp = float(p @ Ap)
        if pAp < 0.0:
            raise NotSPD(f"curvature {pAp:.3e} on iteration {it}")
        if pAp == 0.0:
            # Krylov space exhausted below the requested tolerance
            raise NotConverged(it, norm_r / norm_b)
        alpha = rz / pAp
        x += alpha * p
        r -= alpha * Ap
        norm_r = float(np.linalg.norm(r))
        if norm_r <= rel_tol * norm_b:
            return x, it, norm_r / norm_b
        z = inv_diag * r
        rz_new = float(r @ z)
        if rz == 0.0:
            raise NotConverged(it, norm_r / norm_b)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NotConverged(max_iter, norm_r / norm_b)


def solve(system: LinearSystem, rel_tol: float = 1e-13,
          method: str = "cg") -> SolveResult:
    """Solve the reduced system; returns the expanded global coefficients.

    method: "cg" (Jacobi-preconditioned conjugate gradients, iteration cap
    50 * dim), "direct" (dense Cholesky), or "auto" (direct up to
    DIRECT_LIMIT free DOFs, else cg).
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    if system.n_free == 0:
        return SolveResult(_expand(system, np.zeros(0)), 0, 0.0, "empty")
    if method == "auto":
        method = "direct" if system.n_free <= DIRECT_LIMIT else "cg"
    if method == "direct":
        x = _solve_direct(system)
        norm_b = float(np.linalg.norm(system.rhs))
        res = float(np.linalg.norm(system.rhs - system.matrix @ x))
        rel = res / norm_b if norm_b > 0 else 0.0
        return SolveResult(_expand(system, x), 1, rel, "direct")
    x, iterations, rel = _solve_pcg(system, rel_tol)
    return SolveResult(_expand(system, x), iterations, rel, "cg")


def evaluate_on_elements(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    coeffs: FloatArray,
    ref_points: FloatArray,
    deriv: tuple[int, int] = (0, 0),
    elements: np.ndarray | None = None,
) -> FloatArray:
    """(deriv_x, deriv_y) derivative of the finite element function given by
    global physical DOF values, at reference points shared by every element.

    ref_points: (npts, 2) coordinates on [0,1]^2.  Returns (n_elements, npts),
    or one row per entry of ``elements``.
    """
    h = mesh.h
    l2g = dof_map.local_to_global
    if elements is not None:
        l2g = l2g[elements]
    # physical nodal n = h^o_n * reference nodal n; each derivative divides by h
    scale = h ** (basis.deriv_orders - deriv[0] - deriv[1]).astype(float)
    vals = basis.tabulate(ref_points, deriv) * scale
    return np.asarray(coeffs, dtype=float)[l2g] @ vals.T


def evaluate_solution(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    coeffs: FloatArray,
    x: float,
    y: float,
    deriv: tuple[int, int] = (0, 0),
    element: int | None = None,
) -> float:
    """Point value (or derivative up to order (2,2)) of a finite element
    function given by global physical DOF values.

    Points on interior element boundaries resolve to the right/top element
    unless an explicit element id is supplied.
    """
    if not (deriv[0] <= 2 and deriv[1] <= 2):
        raise ValueError("derivative orders above 2 are not tabulated")
    if element is not None and not 0 <= element < mesh.n_elements:
        raise ValueError(f"element {element} outside 0..{mesh.n_elements - 1}")
    try:
        e = mesh.locate(x, y) if element is None else element
    except ValueError as err:
        raise OutOfDomain(str(err)) from err
    x0, y0 = mesh.element_corner(e)
    pts = np.array([[(x - x0) / mesh.h, (y - y0) / mesh.h]])
    vals = evaluate_on_elements(mesh, dof_map, basis, coeffs, pts, deriv, elements=[e])
    return float(vals[0, 0])
