"""Quadrature, stiffness/load assembly for the bilinear form (lap u, lap v),
strong elimination of clamped DOFs, SPD solvers, and evaluation of finite
element functions.

Scaling rule: with the map x = x0 + h xi, the physical nodal function of a
DOF of derivative order o is h^o times the reference one.  So a stiffness
entry picks up h^(o_m + o_n - 2), a load entry h^(o_m + 2), and evaluation
multiplies physical DOF values by h^o and divides a (d_x, d_y) derivative by
h^(d_x + d_y).  So the operator is A = S A_1 S: the basis's long-double
reference stiffness A_1 on every element's slots, between the scalings
S = diag(h^(o - 1)) of the free slots, exact where h is a power of two, as
on every level.  Assembly and evaluation are array operations over
(element, local DOF); every solve applies and factors A matrix-free, and
only the ``matrix`` property of :class:`LinearSystem` assembles it, as a
reference.  The direct solver factors A_1 in one front per class of
nested-dissection boxes and CG's preconditioner inverts one block of A_1
per class of elements; a class does not depend on the grid size, so a study
factors each class once (:class:`FrontStore`) and every finer level reuses it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from .elements import ElementBasis
from .mesh import DofMap, RectMesh
from .poly2d import FloatArray, is_integer


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


@lru_cache(maxsize=None, typed=True)  # typed: True is not a cached 1
def gauss_rule(m: int) -> QuadratureRule:
    """m-point-per-direction tensor rule, exact on Q_(2m-1), m an integer
    (:func:`poly2d.is_integer`); shared, read-only."""
    if not (is_integer(m) and 1 <= m <= 32):
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
    """Reduced SPD system over the free (unconstrained) DOFs, A = S A_1 S:
    the sum over elements of A_1 = ``element_matrix`` on each element's
    ``element_slots``, between the scalings S = diag(``scale``)."""

    rhs: FloatArray
    free_dofs: np.ndarray    # free slot -> global DOF
    total: int               # global DOF count including constrained
    #: (element, local DOF) -> free slot, -1 if constrained; the blocks of the
    #: CG preconditioner and the boxes of the direct factor
    element_slots: np.ndarray
    #: (dim, dim) A_1 every element adds on its slots; from :func:`assemble`,
    #: the basis's long-double reference stiffness itself, on every level
    element_matrix: np.ndarray
    scale: FloatArray  # (n_free,) s, h^(o - 1) of a free slot's derivative order o

    @property
    def n_free(self) -> int:
        return len(self.free_dofs)

    @cached_property
    def matrix(self):
        """Assembled float64 CSR of S fl64(A_1) S, a reference; no solve reads
        it.  Duplicate slot pairs are summed by scipy, not in element order,
        so an entry can differ from an element loop's sum by roundoff."""
        from scipy.sparse import coo_matrix
        slots, s = self.element_slots, self.scale
        keep = slots >= 0
        pairs = keep[:, :, None] & keep[:, None, :]
        rows = np.broadcast_to(slots[:, :, None], pairs.shape)[pairs]
        cols = np.broadcast_to(slots[:, None, :], pairs.shape)[pairs]
        vals = np.broadcast_to(self.element_matrix.astype(float), pairs.shape)[pairs]
        return coo_matrix((vals * s[rows] * s[cols], (rows, cols)), shape=(len(s),) * 2).tocsr()


@dataclass(frozen=True, eq=False)
class ReferenceTable:
    """Level-invariant data of one element basis on [0,1]^2."""

    stiff: np.ndarray     # (dim, dim) stiffness of (lap u, lap v), long double
    quad: QuadratureRule  # the rule of the load and the error norms
    tab: dict[tuple[int, int], FloatArray]  # (deriv_x, deriv_y) -> (npts, dim) on quad


@lru_cache(maxsize=1)
def reference_table(basis: ElementBasis) -> ReferenceTable:
    """Cached for the most recent basis only; every level of a study shares it.

    k+1 Gauss points per direction integrate the bidegree <= 2k stiffness
    exactly; k+6 are enough for the trigonometric data.  Both are tabulated per
    axis; the stiffness in long double from the float64 stack, nodes and weights.
    """
    qs, ql = gauss_rule(basis.k + 1), gauss_rule(basis.k + 6)
    nodes, weights = qs.nodes.astype(np.longdouble), qs.weights.astype(np.longdouble)
    lap = basis.tabulate_grid(nodes, (2, 0)) + basis.tabulate_grid(nodes, (0, 2))
    table = ReferenceTable(stiff=(lap * weights[:, None]).T @ lap, quad=ql, tab={
        d: basis.tabulate_grid(ql.nodes, d) for d in ((0, 0), (2, 0), (1, 1), (0, 2))})
    for a in (table.stiff, *table.tab.values()):
        a.setflags(write=False)
    return table


#: quadrature points in one block of element rows (at least one row): a
#: float64 grid over a block is at most 0.25 MB on every level
BLOCK_POINTS = 2**15


def element_row_blocks(mesh: RectMesh, points: int) -> list[tuple[slice, slice]]:
    """The element grid in blocks of whole element rows, each of at most
    :data:`BLOCK_POINTS` values at ``points`` per element unless one row has
    more: per block, its element rows and its elements e = j n + i, as
    slices."""
    n = mesh.n
    rows = max(1, BLOCK_POINTS // (n * points))
    return [(slice(j, min(j + rows, n)), slice(j * n, min(j + rows, n) * n))
            for j in range(0, n, rows)]


def on_quadrature_grid(fn: Callable, mesh: RectMesh, rule: QuadratureRule,
                       rows: slice = slice(None)) -> FloatArray:
    """``fn`` at ``rule``'s points on every element of the element rows
    ``rows`` (all by default): (elements, npts), by element e = j n + i.

    ``fn`` gets broadcastable (j, i, a, b) coordinates of element e and point
    p = a m + b: x varies with (i, a) and y with (j, b) only, so a separable
    factor is evaluated n m times per coordinate, not n^2 m^2.  A block of
    :func:`element_row_blocks` gets the same values as those rows of the
    whole grid."""
    n, m = mesh.n, rule.points_per_axis
    g = np.arange(n)[:, None] * mesh.h + mesh.h * rule.nodes
    y = g[rows]
    vals = np.asarray(fn(g[None, :, :, None], y[:, None, None, :]), dtype=float)
    return np.broadcast_to(vals, (len(y), n, m, m)).reshape(len(y) * n, m * m)


def assemble(dof_map: DofMap, f: Callable[[FloatArray, FloatArray], FloatArray]) -> LinearSystem:
    """Assemble the clamped Galerkin system for lap^2 u = f on the map's mesh
    and basis.

    ``f`` must accept broadcastable arrays (:func:`on_quadrature_grid`).
    The (element, local DOF) load is integrated one block of
    :func:`element_row_blocks` at a time, so ``f`` is never held on the whole
    grid.  Constrained rows and columns are eliminated (homogeneous data, so
    no right-hand-side correction).  The operator is the basis's reference
    stiffness A_1 itself, scaled by s = h^(o - 1) on each free slot.
    """
    mesh, basis = dof_map.mesh, dof_map.basis
    table = reference_table(basis)
    q, h = table.quad, mesh.h
    scale = h ** basis.deriv_orders.astype(float)

    free_dofs = np.flatnonzero(~dof_map.is_boundary)
    n = len(free_dofs)
    free_index = -np.ones(dof_map.total, dtype=np.int64)
    free_index[free_dofs] = np.arange(n)
    fslots = free_index[dof_map.local_to_global]
    del free_index

    load = np.empty(fslots.shape)
    for rows, elems in element_row_blocks(mesh, len(q.weights)):
        np.matmul(on_quadrature_grid(f, mesh, q, rows) * q.weights, table.tab[(0, 0)],
                  out=load[elems])
    load *= scale * h**2
    # slot -1 of a constrained DOF adds to, and sets, a padded last entry
    rhs = np.bincount((fslots % (n + 1)).ravel(), weights=load.ravel(), minlength=n + 1)
    s = np.empty(n + 1)
    s[fslots] = scale / h  # a free slot has one derivative order
    return LinearSystem(rhs=rhs[:n], free_dofs=free_dofs, total=dof_map.total,
                        element_slots=fslots, element_matrix=table.stiff, scale=s[:n])


@dataclass
class SolveResult:
    coeffs: FloatArray  # over all global DOFs, constrained slots zero
    iterations: int
    residual: float
    method: str
    fill: int  # 2 nnz(L) of the direct factor (L plus U of an LU); 0 without one
    fronts: int  # classes of boxes the direct factor factored; 0 without one


SOLVER_METHODS = ("direct", "cg")


def _apply(system: LinearSystem, x: FloatArray) -> np.ndarray:
    """A x = S A_1 S x in the dtype of A_1, unassembled: gather S x on every
    element's slots, multiply by A_1, scatter-add and scale by S; slot -1 is
    a padded last entry."""
    slots, block, s = system.element_slots, system.element_matrix, system.scale
    y = np.zeros(len(x) + 1, dtype=block.dtype)
    g = np.append(s * x, 0.0).astype(block.dtype)[slots]
    np.add.at(y, slots, np.einsum("ei,ij->ej", g, block))
    return s * y[:-1]


def _scaled(s: FloatArray, apply: Callable) -> Callable[[FloatArray], FloatArray]:
    """x -> S apply(S x) for S = diag(s)."""
    return lambda x: s * apply(s * x)


def _sides(x0, y0, w, h, n: int):
    """Code of the sides of the unit square that the box (x0, y0, w, h) of
    the n x n element grid touches: 1 left, 2 right, 4 bottom, 8 top."""
    return (x0 == 0) + 2 * (x0 + w == n) + 4 * (y0 == 0) + 8 * (y0 + h == n)


def _halves(w: int, h: int, sides: int) -> list[tuple[tuple[int, int, int], tuple[int, int]]]:
    """The classes of the two halves of a box of class (w, h, sides), each
    with its first element's (dx, dy) offset from the box's; none for a
    single element.  A box is bisected across its longer side, x on a tie,
    at its middle grid line; each half loses the side that the other keeps."""
    if h > w:
        return [((w, h // 2, sides & ~8), (0, 0)), ((w, h - h // 2, sides & ~4), (0, h // 2))]
    if w > 1:
        return [((w // 2, h, sides & ~2), (0, 0)), ((w - w // 2, h, sides & ~1), (w // 2, 0))]
    return []


def _dissection(n: int) -> list[tuple[tuple[int, int, int], np.ndarray]]:
    """Nested dissection of the n x n element grid (A. George, SIAM J. Numer.
    Anal. 10, 1973) by :func:`_halves` from the whole grid, class (n, n, 15):
    each class (width, height, :func:`_sides`) with the first elements
    y0 n + x0 of its boxes, by area, then class, so after its halves."""
    boxes, order = {(n, n, 15): [np.zeros(1, dtype=np.int64)]}, []
    while boxes:  # the largest class left: every box that holds one of its boxes is done
        key = max(boxes, key=lambda c: (c[0] * c[1], c))
        origins = np.concatenate(boxes.pop(key))
        order.append((key, origins))
        for half, (dx, dy) in _halves(*key):
            boxes.setdefault(half, []).append(origins + dy * n + dx)
    return order[::-1]


@dataclass(frozen=True, eq=False)
class _Front:
    """The front that every box of one class shares.  Its first m DOFs are
    eliminated in the box, F11 = L L^T; the other q lie on the box's interface
    and are eliminated in an enclosing box.  Both solves read only W and M."""

    ref: np.ndarray     # (3, m + q) each DOF's element, as an offset (dx, dy)
                        # from the box's first element, and its local slot there
    occ: np.ndarray     # (m + q,) elements of the box that touch each DOF
    m: int
    w: FloatArray       # (m, q) W = M F12
    inv_l: FloatArray   # (m, m) M = L^-1


@dataclass(eq=False)
class FrontStore:
    """The direct factor's fronts by class, for the grids 1, 2, 4, ...,
    ``finest`` of one study, solved in that order: each class is factored on
    the first grid that has it, and every finer grid reuses its front.

    A class holds no grid size, and the fronts factor A_1, the operator
    without its level scaling S, so a front does not depend on the level.
    The first grid makes a plan: the dissections of the grids from it to
    ``finest``, each made once and walked by its grid's factor, and the
    readers of each class's Schur complement among all of them, each class
    counted once.  A factor drops a Schur complement once its last reader is
    factored, and after a grid the store drops the fronts of the classes
    that no grid left in the plan has.  After ``finest``, or a grid whose
    factor fails, it holds nothing; another A_1, or any grid but the plan's
    next, starts a new plan.
    """

    finest: int = 0
    block: FloatArray | None = field(default=None, init=False)  # the float64 A_1
    #: (n, :func:`_dissection` as a dict) of each grid still to solve, next first
    plan: list[tuple[int, dict]] = field(default_factory=list, init=False)
    #: readers of each class's Schur complement not yet factored
    reads: Counter = field(default_factory=Counter, init=False)
    fronts: dict[tuple, _Front] = field(default_factory=dict, init=False)
    schur: dict[tuple, FloatArray] = field(default_factory=dict, init=False)  # on the interface


def _inverse_cholesky(a: FloatArray) -> FloatArray:
    """Overwrite a = L L^T with L^-1 and return it, by halves: past 64 rows
    LAPACK's inverse is slower than the matrix products of the Schur
    complement.  Each half's Schur complement and inverse are formed in its
    own diagonal block of ``a`` and the upper block becomes zero; every
    block is read before it is overwritten, and the lower one not at all, so
    the bits equal those of an out-of-place recursion."""
    m = len(a)
    if m <= 64:
        try:
            a[...] = np.linalg.inv(np.linalg.cholesky(a))
        except np.linalg.LinAlgError as err:
            raise NotSPD(f"nonpositive pivot ({err})") from err
        return a
    h = m // 2
    top = _inverse_cholesky(a[:h, :h])
    w = top @ a[:h, h:]
    a[h:, h:] -= w.T @ w
    bottom = _inverse_cholesky(a[h:, h:])
    a[h:, :h] = -bottom @ (w.T @ top)
    a[:h, h:] = 0.0
    return a


def _inverse_factor(a: FloatArray) -> FloatArray:
    """L^-1 for a = L L^T, from the factor of a equilibrated to unit diagonal,
    whose entries are at most 1, formed in the equilibrated copy; ``a`` is
    left as it is.  A nonpositive diagonal entry or pivot raises
    :class:`NotSPD`."""
    d = np.diagonal(a)
    if not np.all(d > 0.0):
        raise NotSPD("nonpositive diagonal entry")
    d = 1.0 / np.sqrt(d)
    inv_l = _inverse_cholesky(a * d[:, None] * d)
    inv_l *= d
    return inv_l


def _front(slots: np.ndarray, block: FloatArray, touching: np.ndarray, origin: int, n: int,
           halves: list[tuple[_Front, FloatArray, np.ndarray]] | None) -> tuple[_Front, FloatArray]:
    """Factor the front of the box whose first element is ``origin`` of the
    n x n grid; returns it and the (q, q) Schur complement F22 - W^T W left
    on its interface.

    A single element (``halves`` None) has ``block`` on its free slots as
    its front; a larger box sums the Schur complements of its halves, given
    with their first elements' (dx, dy) offsets, scattered by broadcast
    row and column indices.  A DOF is eliminated in the smallest box that
    holds all ``touching[slot]`` elements touching it.  The Schur complement
    is formed in the buffer of the product W^T W; a front with m = 0 passes
    F on as it is.
    """
    if halves is None:
        local = np.flatnonzero(slots[origin] >= 0)
        ref, occ = np.stack([0 * local, 0 * local, local]), np.ones(len(local))
        dof = slots[origin, local]
    else:
        ref = np.hstack([f.ref[:, f.m:] + [[dx], [dy], [0]] for f, _, (dx, dy) in halves])
        dof, first, at = np.unique(slots[origin + ref[1] * n + ref[0], ref[2]],
                                   return_index=True, return_inverse=True)
        occ = np.bincount(at, weights=np.concatenate([f.occ[f.m:] for f, _, _ in halves]))
        ref = ref[:, first]
    inner = occ == touching[dof]
    order = np.argsort(~inner, kind="stable")
    m = int(np.count_nonzero(inner))
    if halves is None:
        F = block[np.ix_(local[order], local[order])]
    else:  # each half's interface DOFs as rows and columns of F, summed
        (_, s0, _), (_, s1, _) = halves
        r0, r1 = np.split(np.argsort(order)[at], [len(s0)])
        F = np.zeros((len(order), len(order)))
        F[r0[:, None], r0] = s0
        F[r1[:, None], r1] += s1
    inv_l = _inverse_factor(F[:m, :m]) if m else np.zeros((0, 0))
    w = inv_l @ F[:m, m:]
    front = _Front(ref=ref[:, order], occ=occ[order], m=m, w=w, inv_l=inv_l)
    if not m:  # a front that eliminates nothing passes F on as its Schur complement
        return front, F
    schur = w.T @ w
    return front, np.subtract(F[m:, m:], schur, out=schur)


def _multifrontal_cholesky(system: LinearSystem, block: FloatArray, store: FrontStore,
                           ) -> tuple[list[tuple[_Front, np.ndarray]], int, int]:
    """Multifrontal Cholesky (Duff & Reid, ACM TOMS 9, 1983) of the float64
    A_1 ``block`` summed on the element slots, in :func:`_dissection`'s order.

    On the uniform grid every element carries A_1, and the boxes of one
    class see the same slot pattern, so each class's front is factored once,
    after its halves, and only if ``store`` holds no front for it; the
    store's plan (:class:`FrontStore`) sets how long fronts and Schur
    complements are held.  Returns, smallest class first, the front of each
    class that eliminates DOFs (m > 0) and its boxes' (boxes, m + q) front
    slots, gathered once the Schur complements read for the last time are
    freed; the fill 2 nnz(L), the count of L plus U of an LU in this order;
    and the number of classes factored.
    """
    slots = system.element_slots
    n = round(len(slots) ** 0.5)
    if not (np.array_equal(store.block, block) and store.plan and store.plan[0][0] == n):
        # a new plan: the grids n, 2n, ..., finest and the union of their classes
        grids = [n]
        while 2 * grids[-1] <= store.finest:
            grids.append(2 * grids[-1])
        store.plan = [(g, dict(_dissection(g))) for g in grids]
        union = set().union(*(keys for _, keys in store.plan))
        store.reads = Counter(half for key in union for half, _ in _halves(*key))
        store.block, store.fronts, store.schur = block, {}, {}
    _, classes = store.plan.pop(0)
    touching = np.bincount(slots[slots >= 0], minlength=system.n_free)
    factor, made = [], 0
    try:
        for key, origins in classes.items():
            if key not in store.fronts:
                parts = _halves(*key)
                halves = [(store.fronts[k], store.schur[k], d) for k, d in parts]
                store.fronts[key], schur = _front(slots, block, touching, origins[0], n,
                                                  halves or None)
                del halves  # so that the Schur complements can be freed below
                made += 1
                for k, _ in parts:
                    store.reads[k] -= 1
                    if not store.reads[k]:
                        del store.schur[k]
                if store.reads[key]:
                    store.schur[key] = schur
            if store.fronts[key].m:
                factor.append((store.fronts[key], origins))
    except BaseException:  # a failed grid holds nothing; the next starts a new plan
        store.plan, store.fronts, store.schur = [], {}, {}
        raise
    store.fronts = {k: f for k, f in store.fronts.items() if any(k in c for _, c in store.plan)}
    # the slot tables, gathered once the Schur complements read last are freed
    factor = [(f, slots[o[:, None] + f.ref[1] * n + f.ref[0], f.ref[2]]) for f, o in factor]
    fill = sum(len(s) * f.m * (f.m + 1 + 2 * (s.shape[1] - f.m)) for f, s in factor)
    return factor, fill, made


def _direct_solver(system: LinearSystem, block: FloatArray, store: FrontStore,
                   ) -> tuple[Callable[[FloatArray], tuple[FloatArray, int]], int, int]:
    """:func:`_multifrontal_cholesky`'s factor of the float64 A_1 ``block``
    and its triangular solves; returns the solver, the fill and the number
    of classes factored.  The factor holds no front that eliminates nothing:
    such a front leaves its slots as they are.

    A^-1 r = S^-1 A_1^-1 S^-1 r, both scalings exact.  Forward, in the
    factor's order, each class gathers its boxes' eliminated entries, applies
    M and scatters the update W^T z onto the interfaces; backward, in
    reverse, it sets each box's eliminated values v_e to (v_e - v_i W^T) M
    from its interface values v_i.  Python loops run over classes only.
    """
    factor, fill, fronts = _multifrontal_cholesky(system, block, store)

    def solve_ll(r: FloatArray) -> tuple[FloatArray, int]:
        v = r / system.scale
        for f, s in factor:
            z = v[s[:, :f.m]] @ f.inv_l.T
            v[s[:, :f.m]] = z
            v -= np.bincount(s[:, f.m:].ravel(), weights=(z @ f.w).ravel(), minlength=len(v))
        for f, s in reversed(factor):
            v[s[:, :f.m]] = (v[s[:, :f.m]] - v[s[:, f.m:]] @ f.w.T) @ f.inv_l
        return v / system.scale, 1

    return solve_ll, fill, fronts


def _element_sum(groups: list[np.ndarray], blocks: list[FloatArray],
                 n: int) -> Callable[[FloatArray], FloatArray]:
    """The float64 map x -> sum_e R_e^T B_e R_e x over n free slots, where
    the (elements, dim) slots of ``groups[c]`` all carry ``blocks[c]``: one
    gather, one product per block and one scatter; slot -1 gathers a padded
    zero, and its sums are dropped."""
    flat = np.concatenate([ix.ravel() for ix in groups]) % (n + 1)

    def apply(x: FloatArray) -> FloatArray:
        g = np.append(x, 0.0)
        y = np.concatenate([(g[ix] @ blk).ravel() for ix, blk in zip(groups, blocks)])
        return np.bincount(flat, weights=y, minlength=n + 1)[:n]

    return apply


def _element_block_preconditioner(system: LinearSystem, block: FloatArray) -> Callable:
    """Additive Schwarz over elements: r -> sum_e R_e^T A_ee^-1 R_e r =
    S^-1 P(S^-1 r), for P the same sum over the B_e^-1, B_e the float64 A_1
    ``block`` summed on e's free slots, the identity on constrained ones.
    B_e depends on e's class (:func:`_sides`) only, so it is summed around
    each class's first element and inverted once per class.  Only A_1
    enters, never the global factorization: CG stays an independent check."""
    slots, n = system.element_slots, system.n_free
    side = round(len(slots) ** 0.5)
    y0, x0 = np.divmod(np.arange(len(slots)), side)
    _, first, cls = np.unique(_sides(x0, y0, 1, 1, side), return_index=True, return_inverse=True)
    probe = np.unique(slots[first][slots[first] >= 0])  # the first elements' free slots
    at = np.full(n + 1, len(probe))  # a slot's rank among them; any other, and -1: the last
    at[probe] = np.arange(len(probe))
    touched = at[slots[np.isin(slots, probe).any(axis=1)]]
    sub = np.zeros((len(probe) + 1,) * 2)
    np.add.at(sub, (touched[:, :, None], touched[:, None, :]), block)  # in element order
    ix = at[slots[first]][:, :, None], at[slots[first]][:, None, :]  # each class's block in sub
    blocks = np.where((ix[0] < len(probe)) & (ix[1] < len(probe)), sub[ix], np.eye(len(block)))
    # A_ee^-1 = M^T M for M = L^-1; numpy forms M^T M by syrk, exactly symmetric
    inv = [m.T @ m for m in map(_inverse_factor, blocks)]
    groups = np.split(slots[np.argsort(cls, kind="stable")], np.cumsum(np.bincount(cls))[:-1])
    return _scaled(1.0 / system.scale, _element_sum(groups, inv, n))


def _pcg_solver(system: LinearSystem, rel_tol: float, block: FloatArray,
                product: Callable[[FloatArray], FloatArray],
                ) -> Callable[[FloatArray], tuple[FloatArray, int]]:
    """Conjugate gradients from a zero guess on the float64 ``product`` S A_1 S,
    preconditioned by element blocks of the float64 A_1 ``block``.

    Each solve stops once the recursively updated residual is below
    ``rel_tol`` relative to its right-hand side, and raises
    :class:`NotConverged` after 50 * dim iterations.
    """
    precond = _element_block_preconditioner(system, block)
    max_iter = 50 * system.n_free

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
            Ap = product(p)
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
            product: Callable[[FloatArray], FloatArray]) -> tuple[FloatArray, int, float]:
    """Iterative refinement of a pair x0 + e (Carson & Higham, SIAM J. Sci.
    Comput. 40, 2018).

    Each step solves A d = r in float64 with ``correction`` and adds d to e,
    for r = r0 - A e, A = S A_1 S: r0 = b - A x0 comes from :func:`_apply`
    in the dtype of A_1 (long double from :func:`assemble`), A e from the
    float64 ``product``.  Once max |e| passes (u_A1 / u) max |x0|, as on the
    first step from x0 = 0, x0 + e is rounded into x0, e restarts at 0 and
    r0 is formed again; below that bound the float64 error of A e stays
    under that of r0.  It stops once |d|, or from the second step on the
    corrections still to come, |d| rho / (1 - rho) for the ratio rho of |d|
    to the previous step (Demmel, Hida, Kahan, Li, Mukherjee & Riedy, ACM
    TOMS 32, 2006), are below one ulp of max |x0 + e|, or when d stops
    shrinking (more than half the previous step; that step is not applied).
    Returns x = fl(x0 + e), the summed count of ``correction``, and the
    relative residual of x: r + A err, for the rounding error err of x from
    TwoSum.
    """
    dtype = system.element_matrix.dtype
    anchor = np.finfo(dtype).eps / np.finfo(float).eps
    b = system.rhs.astype(dtype)
    x0 = e = np.zeros(system.n_free)
    r0, r, count, last = b, b, 0, np.inf
    while True:
        d, c = correction(r.astype(float))
        count += c
        step = float(np.max(np.abs(d)))
        if not step <= 0.5 * last:  # stopped shrinking, or not finite
            break
        e = e + d
        if np.max(np.abs(e)) > anchor * np.max(np.abs(x0)):
            x0, e = x0 + e, np.zeros_like(e)
            r0 = r = b - _apply(system, x0)
        else:
            r = r0 - product(e)
        ulp = np.finfo(float).eps * np.max(np.abs(x0 + e))
        # step rho / (1 - rho) = step^2 / (last - step), with no division
        if step <= ulp or (last < np.inf and step * step <= ulp * (last - step)):
            break
        last = step
    x = x0 + e
    t = x - x0
    r = r + product((x0 - (x - t)) + (e - t))
    norm_b = float(np.linalg.norm(b))
    return x, count, float(np.linalg.norm(r)) / norm_b if norm_b > 0 else 0.0


def solve(system: LinearSystem, rel_tol: float = 1e-13,
          method: str = "direct", store: FrontStore | None = None) -> SolveResult:
    """Solve the reduced system; returns the expanded global coefficients.

    A_1 is rounded to float64 once, for the factor or CG's preconditioner
    and the float64 product S fl64(A_1) S of CG and the refinement.  method:
    "direct" (nested-dissection Cholesky; see :func:`_direct_solver`) or
    "cg" (preconditioned by element blocks, each solve to relative residual
    ``rel_tol`` within 50 * dim iterations).  ``store`` lends the direct
    method the fronts of a study's coarser grids; without one it factors
    every class afresh.  Both methods are refined around one matrix-free
    long-double residual per solve (see :func:`_refine`), so they return the
    solution of the long-double operator up to its conditioning times the
    long-double unit roundoff; where ``np.longdouble`` is float64, not below
    float64 accuracy.  ``iterations`` counts every CG iteration, or every
    triangular solve pair of the direct method; ``residual`` is the
    long-double relative residual of the returned coefficients.  A
    nonpositive pivot or CG curvature raises :class:`NotSPD`.
    """
    if method not in SOLVER_METHODS:
        raise ValueError(f"unknown solver method {method!r}")
    if system.n_free == 0:
        return SolveResult(np.zeros(system.total), 0, 0.0, "empty", 0, 0)
    block = system.element_matrix.astype(float)
    if method == "direct":
        correction, fill, made = _direct_solver(system, block, store or FrontStore())
    # one float64 product for CG and the refinement, formed after the factor
    product = _scaled(system.scale, _element_sum([system.element_slots], [block], system.n_free))
    if method == "cg":
        correction, fill, made = _pcg_solver(system, rel_tol, block, product), 0, 0
    x, iterations, rel = _refine(system, correction, product)
    coeffs = np.zeros(system.total)
    coeffs[system.free_dofs] = x
    return SolveResult(coeffs, iterations, rel, method, fill, made)


def evaluate_on_elements(dof_map: DofMap, coeffs: FloatArray, ref_points: FloatArray | None,
                         deriv: tuple[int, int] = (0, 0),
                         elements: slice = slice(None)) -> FloatArray:
    """(deriv_x, deriv_y) derivative of the finite element function given by
    global physical DOF values on the map's mesh and basis, at reference
    points shared by every element.

    ref_points: (npts, 2) coordinates on [0,1]^2, or None for the cached
    tabulation of (0, 0), (2, 0), (1, 1) or (0, 2) on :func:`reference_table`'s
    rule.  Returns one row per element of the slice ``elements`` (all by
    default), filled by the blocks of :func:`element_row_blocks` for
    max(npts, dim) points, counted from the slice's first element.  On the
    rule npts > dim, so a block of the rule is one block here and keeps its
    bits (a BLAS product can round a row by the number of rows).  ``coeffs``
    holds one value per global DOF.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    if coeffs.shape != (dof_map.total,):
        raise ValueError(f"{coeffs.size} coefficients for {dof_map.total} global DOFs")
    mesh, basis = dof_map.mesh, dof_map.basis
    # physical nodal n = h^o_n * reference nodal n; each derivative divides by h
    scale = mesh.h ** (basis.deriv_orders - deriv[0] - deriv[1]).astype(float)
    if ref_points is None and deriv not in reference_table(basis).tab:
        raise ValueError(f"the rule's tabulation holds derivatives (0, 0), (2, 0), (1, 1) and "
                         f"(0, 2), not {deriv}; other derivatives need explicit points")
    vals = (reference_table(basis).tab[deriv] if ref_points is None
            else basis.tabulate(ref_points, deriv)) * scale
    l2g = dof_map.local_to_global[elements]
    out = np.empty((len(l2g), len(vals)))
    for _, block in element_row_blocks(mesh, max(len(vals), basis.dim)):
        if block.start >= len(out):
            break
        np.matmul(coeffs[l2g[block]], vals.T, out=out[block])
    return out


def evaluate_solution(dof_map: DofMap, coeffs: FloatArray, x: float, y: float,
                      deriv: tuple[int, int] = (0, 0), element: int | None = None) -> float:
    """Point value (or derivative up to order (2,2)) of a finite element
    function given by global physical DOF values on the map's mesh and basis.

    Points on interior element boundaries resolve to the right/top element
    unless an explicit element id is supplied.  A point outside the closed
    unit square, or not finite, raises :class:`OutOfDomain`, with or without
    an element.
    """
    if not all(is_integer(d) and 0 <= d <= 2 for d in deriv):
        raise ValueError("derivative orders above 2 are not tabulated")
    mesh = dof_map.mesh
    if element is not None and not (is_integer(element) and 0 <= element < mesh.n_elements):
        raise ValueError(f"element {element} outside 0..{mesh.n_elements - 1}")
    try:
        located = mesh.locate(x, y)
    except ValueError as err:
        raise OutOfDomain(str(err)) from err
    e = located if element is None else element
    x0, y0 = mesh.element_corner(e)
    pts = np.array([[(x - x0) / mesh.h, (y - y0) / mesh.h]])
    vals = evaluate_on_elements(dof_map, coeffs, pts, deriv, slice(e, e + 1))
    return float(vals[0, 0])
