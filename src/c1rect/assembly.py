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
from functools import lru_cache
from typing import Callable

import numpy as np
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
    nodes: FloatArray    # (m,); point a*m + b is (nodes[a], nodes[b])


@lru_cache(maxsize=None)
def gauss_rule(m: int) -> QuadratureRule:
    """m-point-per-direction tensor rule, exact on Q_(2m-1); shared, read-only."""
    if not 1 <= m <= 32:
        raise ValueError("points per direction must be in 1..32")
    nodes, weights = np.polynomial.legendre.leggauss(m)
    x = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    X, Y = np.meshgrid(x, x, indexing="ij")
    WX, WY = np.meshgrid(w, w, indexing="ij")
    rule = QuadratureRule(np.column_stack([X.ravel(), Y.ravel()]), (WX * WY).ravel(), m, x)
    for a in (rule.points, rule.weights, rule.nodes):
        a.setflags(write=False)
    return rule


@dataclass(eq=False)
class LinearSystem:
    """Reduced SPD system over the free (unconstrained) DOFs."""

    matrix: scipy.sparse.csr_matrix
    rhs: FloatArray
    free_dofs: np.ndarray    # free slot -> global DOF
    free_index: np.ndarray   # global DOF -> free slot, -1 if constrained
    total: int               # global DOF count including constrained
    #: (element, local DOF) -> free slot, -1 if constrained; the blocks of the
    #: CG preconditioner
    element_slots: np.ndarray

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)


@dataclass(frozen=True, eq=False)
class ReferenceTable:
    """Level-invariant data of one element basis on [0,1]^2."""

    stiff: FloatArray     # (dim, dim) stiffness of (lap u, lap v)
    quad: QuadratureRule  # the rule of the load and the error norms
    tab: dict[tuple[int, int], FloatArray]  # (deriv_x, deriv_y) -> (npts, dim) on quad


@lru_cache(maxsize=None)
def reference_table(basis: ElementBasis) -> ReferenceTable:
    """Built once per basis (the bases themselves are cached singletons).

    k+1 Gauss points per direction integrate the bidegree <= 2k stiffness
    exactly; k+6 are enough for the trigonometric data.
    """
    qs, ql = gauss_rule(basis.k + 1), gauss_rule(basis.k + 6)
    lap = basis.tabulate(qs.points, (2, 0)) + basis.tabulate(qs.points, (0, 2))
    table = ReferenceTable(stiff=(lap * qs.weights[:, None]).T @ lap, quad=ql, tab={
        d: basis.tabulate(ql.points, d) for d in ((0, 0), (2, 0), (1, 1), (0, 2))})
    for a in (table.stiff, *table.tab.values()):
        a.setflags(write=False)
    return table


def on_quadrature_grid(fn: Callable, mesh: RectMesh, rule: QuadratureRule) -> FloatArray:
    """``fn`` at ``rule``'s points on every element: (n_elements, npts).

    ``fn`` gets broadcastable (j, i, a, b) coordinates of element e = j n + i
    and point p = a m + b: x varies with (i, a) and y with (j, b) only, so a
    separable factor is evaluated n m times, not n^2 m^2."""
    n, m = mesh.n, rule.points_per_axis
    g = np.arange(n)[:, None] * mesh.h + mesh.h * rule.nodes
    vals = np.asarray(fn(g[None, :, :, None], g[:, None, None, :]), dtype=float)
    return np.broadcast_to(vals, (n, n, m, m)).reshape(n * n, m * m)


def assemble(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    f: Callable[[FloatArray, FloatArray], FloatArray],
) -> LinearSystem:
    """Assemble the clamped Galerkin system for lap^2 u = f.

    ``f`` must accept broadcastable arrays (:func:`on_quadrature_grid`).
    Constrained rows and columns are eliminated (homogeneous data, so no
    right-hand-side correction).
    """
    if dof_map.local_to_global.shape[1] != basis.dim:
        raise DimensionMismatch(
            f"map has {dof_map.local_to_global.shape[1]} local slots, "
            f"element has {basis.dim}")
    table = reference_table(basis)
    h = mesh.h
    scale = h ** basis.deriv_orders.astype(float)
    elem_stiff = table.stiff * np.outer(scale, scale) / h**2
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

    fq = on_quadrature_grid(f, mesh, table.quad)
    load = load_scale * ((fq * table.quad.weights) @ table.tab[(0, 0)])
    rhs = np.bincount(fslots[keep], weights=load[keep], minlength=len(free_dofs))

    n = len(free_dofs)
    matrix = scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return LinearSystem(matrix=matrix, rhs=rhs, free_dofs=free_dofs,
                        free_index=free_index, total=dof_map.total,
                        element_slots=fslots)


@dataclass
class SolveResult:
    coeffs: FloatArray  # over all global DOFs, constrained slots zero
    iterations: int
    residual: float
    method: str
    fill: int  # nonzeros of the direct factor, L plus U; 0 without one


SOLVER_METHODS = ("direct", "cg")


def _expand(system: LinearSystem, x: FloatArray) -> FloatArray:
    full = np.zeros(system.total)
    full[system.free_dofs] = x
    return full


def _positive_diagonal(matrix: scipy.sparse.csr_matrix) -> FloatArray:
    d = matrix.diagonal()
    if np.any(~(d > 0.0)):
        raise NotSPD("nonpositive diagonal entry")
    return d


def _nested_dissection(system: LinearSystem) -> np.ndarray:
    """Elimination order (new -> old slot) by nested dissection of the element
    grid (A. George, SIAM J. Numer. Anal. 10, 1973): each rectangle of elements
    is bisected across its longer side at its middle grid line, down to single
    elements; a slot goes to a half if all its elements lie there, else to the
    separator, which is ordered after both halves."""
    slots = system.element_slots
    n, nf = round(len(slots) ** 0.5), system.n_free
    e, local = np.nonzero(slots >= 0)
    lo, hi = np.full((2, nf), n), np.zeros((2, nf), dtype=int)  # box of its elements
    for a, c in enumerate((e % n, e // n)):
        np.minimum.at(lo[a], slots[e, local], c)
        np.maximum.at(hi[a], slots[e, local], c + 1)
    r0, r1 = np.zeros((2, nf), dtype=int), np.full((2, nf), n)  # its subdomain
    key, digit = np.zeros(nf, dtype=np.int64), np.zeros(nf, dtype=int)
    while np.any(digit < 2):
        y = r1[1] - r0[1] > r1[0] - r0[0]  # x on a tie
        mid = np.where(y, r0[1] + r1[1], r0[0] + r1[0]) // 2
        digit = np.where(np.where(y, hi[1], hi[0]) <= mid, 0,
                         np.where(np.where(y, lo[1], lo[0]) >= mid, 1, 2))
        digit[np.all(r1 - r0 == 1, axis=0)] = 2
        key = 3 * key + digit  # 0, 1: the half; 2: separator or single element, last
        for r, d in ((r1, 0), (r0, 1)):  # the half's side moves to mid
            np.copyto(r, mid, where=np.stack([~y, y]) & (digit == d))
    return np.argsort(key, kind="stable")


def _direct_solver(system: LinearSystem) -> tuple[Callable[[FloatArray], tuple[FloatArray, int]], int]:
    """Sparse LU with symmetric diagonal equilibration; returns the solver
    and the fill (nonzeros of L plus U).

    Value and mixed-derivative DOFs scale like h^0 vs h^2, which alone costs
    ~h^-4 in condition number at high degree; equilibrating by the diagonal
    removes that spread.  SuperLU keeps :func:`_nested_dissection`'s order
    and swaps a row only for an exactly zero pivot, so without a swap the
    pivots are Cholesky's: all positive iff the matrix is SPD, up to roundoff.
    """
    from scipy.sparse.linalg import splu  # here: 9 MB, 0.05-0.065 s that verify and CG never use
    A = system.matrix
    s = 1.0 / np.sqrt(_positive_diagonal(A))
    p = _nested_dissection(system)
    q = np.argsort(p).astype(A.indices.dtype)  # old -> new
    B = scipy.sparse.csr_matrix((A.data * np.repeat(s, np.diff(A.indptr)) * s[A.indices],
                                 A.indices, A.indptr), shape=A.shape)[p]  # rows moved
    B = scipy.sparse.csr_matrix((B.data, q[B.indices], B.indptr), shape=A.shape).tocsc()
    s = s[p]
    try:
        lu = splu(B, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                  options={"SymmetricMode": True})
    except RuntimeError as err:  # exactly singular
        raise NotSPD(str(err)) from err
    if not (np.array_equal(lu.perm_r, lu.perm_c) and np.all(lu.U.diagonal() > 0.0)):
        raise NotSPD("nonpositive pivot")
    return (lambda r: ((s * lu.solve(s * r[p]))[q], 1)), lu.L.nnz + lu.U.nnz


def _element_block_preconditioner(system: LinearSystem) -> Callable[[FloatArray], FloatArray]:
    """Additive Schwarz over elements: r -> sum_e R_e^T A_ee^-1 R_e r.

    A_ee is the assembled matrix restricted to element e's free DOFs, padded
    with the identity on its constrained slots and inverted after diagonal
    equilibration.  Only local blocks enter, never the global factorization,
    so CG stays an independent check of the direct solve.  On a uniform mesh
    most elements share their block, so each distinct block is inverted once
    and applied to all of its elements in one product.
    """
    A = system.matrix
    n = system.n_free
    _positive_diagonal(A)
    slots = system.element_slots
    free = slots >= 0
    idx = np.where(free, slots, n)  # constrained slots gather a padded zero
    pairs = free[:, :, None] & free[:, None, :]
    rows = np.broadcast_to(idx[:, :, None], pairs.shape)[pairs]
    cols = np.broadcast_to(idx[:, None, :], pairs.shape)[pairs]
    blocks = np.zeros(pairs.shape)
    blocks[pairs] = np.asarray(A[rows, cols]).ravel()
    e, i = np.nonzero(~free)
    blocks[e, i, i] = 1.0

    distinct, kind = np.unique(blocks.reshape(len(blocks), -1), axis=0,
                               return_inverse=True)
    distinct = distinct.reshape(-1, *blocks.shape[1:])
    s = 1.0 / np.sqrt(np.diagonal(distinct, axis1=1, axis2=2))
    ss = s[:, :, None] * s[:, None, :]
    inv = np.linalg.inv(distinct * ss) * ss
    inv = 0.5 * (inv + inv.transpose(0, 2, 1))
    by_kind = idx[np.argsort(kind, kind="stable")]
    groups = np.split(by_kind, np.cumsum(np.bincount(kind))[:-1])
    flat = by_kind.ravel()

    def apply(r: FloatArray) -> FloatArray:
        g = np.append(r, 0.0)
        y = np.concatenate([(g[ix] @ blk).ravel() for ix, blk in zip(groups, inv)])
        return np.bincount(flat, weights=y, minlength=n + 1)[:n]

    return apply


def _pcg_solver(system: LinearSystem, rel_tol: float) -> Callable[[FloatArray], tuple[FloatArray, int]]:
    """Element-block preconditioned conjugate gradients from a zero guess.

    Each solve stops once the recursively updated residual is below
    ``rel_tol`` relative to its right-hand side, and raises
    :class:`NotConverged` after 50 * dim iterations.
    """
    A = system.matrix
    precond = _element_block_preconditioner(system)
    max_iter = 50 * A.shape[0]

    def pcg(b: FloatArray) -> tuple[FloatArray, int]:
        norm_b = float(np.linalg.norm(b))
        x = np.zeros_like(b)
        if norm_b == 0.0:
            return x, 0
        r = b.copy()
        z = precond(r)
        p = z.copy()
        rz = float(r @ z)
        norm_r = norm_b
        for it in range(1, max_iter + 1):
            Ap = A @ p
            pAp = float(p @ Ap)
            if pAp < 0.0:
                raise NotSPD(f"curvature {pAp:.3e} on iteration {it}")
            if pAp == 0.0 or rz == 0.0:
                # Krylov space exhausted below the requested tolerance
                raise NotConverged(it, norm_r / norm_b)
            alpha = rz / pAp
            x += alpha * p
            r -= alpha * Ap
            norm_r = float(np.linalg.norm(r))
            if norm_r <= rel_tol * norm_b:
                return x, it
            z = precond(r)
            rz_new = float(r @ z)
            p = z + (rz_new / rz) * p
            rz = rz_new
        raise NotConverged(max_iter, norm_r / norm_b)

    return pcg


def _refine(system: LinearSystem,
            correction: Callable[[FloatArray], tuple[FloatArray, int]],
            ) -> tuple[FloatArray, int, float]:
    """Iterative refinement on a long-double residual.

    Starting from x = 0, each step solves A d = r in float64 with
    ``correction`` for r = b - A x evaluated in ``np.longdouble``, and adds d.
    It stops when d is below one ulp of max |x|, or when d stops shrinking
    (more than half the previous step; that step is not applied).  Returns
    x, the summed count of ``correction``, and the relative residual of x.
    """
    A = system.matrix.astype(np.longdouble)
    b = system.rhs.astype(np.longdouble)
    x = np.zeros(system.n_free)
    r = b
    count = 0
    last = np.inf
    while True:
        d, c = correction(r.astype(float))
        count += c
        step = float(np.max(np.abs(d)))
        if not step <= 0.5 * last:  # stopped shrinking, or not finite
            break
        x += d
        r = b - A @ x
        last = step
        if step <= np.finfo(float).eps * np.max(np.abs(x)):
            break
    norm_b = float(np.linalg.norm(b))
    return x, count, float(np.linalg.norm(r)) / norm_b if norm_b > 0 else 0.0


def solve(system: LinearSystem, rel_tol: float = 1e-13,
          method: str = "direct") -> SolveResult:
    """Solve the reduced system; returns the expanded global coefficients.

    method: "direct" (equilibrated sparse LU with Cholesky pivots; see
    :func:`_direct_solver`) or "cg" (conjugate gradients preconditioned by
    element blocks, each solve to relative residual ``rel_tol`` within
    50 * dim iterations).  Both methods are refined on a long-double
    residual (see :func:`_refine`), so they return the solution of the
    stored system up to its conditioning times the long-double unit
    roundoff; where ``np.longdouble`` is float64, not below float64
    accuracy.  ``iterations`` counts every CG iteration, or every
    triangular solve pair of the direct method; ``residual`` is the
    long-double relative residual of the returned coefficients.  A
    nonpositive pivot or CG curvature raises :class:`NotSPD`.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    if system.n_free == 0:
        return SolveResult(_expand(system, np.zeros(0)), 0, 0.0, "empty", 0)
    if method == "direct":
        correction, fill = _direct_solver(system)
    else:
        correction, fill = _pcg_solver(system, rel_tol), 0
    x, iterations, rel = _refine(system, correction)
    return SolveResult(_expand(system, x), iterations, rel, method, fill)


def evaluate_on_elements(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    coeffs: FloatArray,
    ref_points: FloatArray | None,
    deriv: tuple[int, int] = (0, 0),
    elements: np.ndarray | None = None,
) -> FloatArray:
    """(deriv_x, deriv_y) derivative of the finite element function given by
    global physical DOF values, at reference points shared by every element.

    ref_points: (npts, 2) coordinates on [0,1]^2, or None for the cached
    tabulation on :func:`reference_table`'s rule.  Returns (n_elements, npts),
    or one row per entry of ``elements``.
    """
    h = mesh.h
    l2g = dof_map.local_to_global
    if elements is not None:
        l2g = l2g[elements]
    # physical nodal n = h^o_n * reference nodal n; each derivative divides by h
    scale = h ** (basis.deriv_orders - deriv[0] - deriv[1]).astype(float)
    vals = (reference_table(basis).tab[deriv] if ref_points is None
            else basis.tabulate(ref_points, deriv)) * scale
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
