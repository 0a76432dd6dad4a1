"""Reference elements on [0,1]^2: the bubble-enriched total-degree family and
the tensor-product Bogner-Fox-Schmit family.

Both families share the DOF layout that makes global C1 assembly work on
axis-aligned meshes: four DOFs per vertex (value, d/dx, d/dy, d2/dxdy), edge
DOFs that are values plus the derivative normal to the edge's axis, and
element-private interior values.  All derivative DOFs are global-axis
derivatives, never outward normals, so neighbouring elements share the exact
same functional without sign flips.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bell import bell_nodal_basis, dual_nodal_basis, select_bubbles
from .poly2d import (DofFunctional, DofKind, FloatArray, Poly2D, _differentiate,
                     stack_coeffs)


class Family(str, Enum):
    ENRICHED_P = "p-enriched"
    BFS_Q = "q-bfs"


class MismatchedCounts(RuntimeError):
    """Space dimension and DOF count disagree."""


#: reference corners in local order: (0,0), (1,0), (1,1), (0,1)
VERTICES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

#: per edge (bottom, right, top, left): the two endpoint vertex indices
EDGE_VERTICES = ((0, 1), (1, 2), (3, 2), (0, 3))

#: derivative kind carried by edge DOFs: normal to the edge's axis
EDGE_NORMAL_KIND = (DofKind.DY, DofKind.DX, DofKind.DY, DofKind.DX)

VERTEX_KINDS = (DofKind.VALUE, DofKind.DX, DofKind.DY, DofKind.DXY)


def edge_point(edge: int, t: float) -> tuple[float, float]:
    """Reference coordinates of parameter t in [0,1] along an edge."""
    if edge == 0:
        return (t, 0.0)
    if edge == 1:
        return (1.0, t)
    if edge == 2:
        return (t, 1.0)
    if edge == 3:
        return (0.0, t)
    raise ValueError(f"edge index {edge} out of range")


@dataclass(frozen=True)
class DofRole:
    """Topological tag of a DOF: owning entity and slot within it."""

    entity: str  # "vertex" | "edge" | "interior"
    index: int   # vertex 0..3, edge 0..3 (bottom,right,top,left), 0 for interior
    slot: int


class ElementBasis:
    """Ordered DOF set with its dual nodal basis for one element family.

    Attributes
    ----------
    family, k : the element family and polynomial degree
    dofs : tuple of DofFunctional on [0,1]^2
    nodal : tuple of Poly2D with dofs[m](nodal[n]) = delta_mn
    roles : per-DOF topological tags, aligned with ``dofs``
    rcond : reciprocal condition number of the duality matrix
    """

    def __init__(self, family, k, dofs, nodal, roles, rcond):
        self.family = family
        self.k = k
        self.dofs = tuple(dofs)
        self.nodal = tuple(nodal)
        self.roles = tuple(roles)
        self.rcond = rcond
        self.deriv_orders = np.array([d.kind.total_order for d in self.dofs])
        self._tab_cache: dict[tuple[int, int], FloatArray] = {}

    @property
    def dim(self) -> int:
        return len(self.dofs)

    def vertex_dofs(self, vertex: int) -> list[int]:
        return [n for n, r in enumerate(self.roles)
                if r.entity == "vertex" and r.index == vertex]

    def edge_dofs(self, edge: int) -> list[int]:
        out = [(r.slot, n) for n, r in enumerate(self.roles)
               if r.entity == "edge" and r.index == edge]
        return [n for _, n in sorted(out)]

    def interior_dofs(self) -> list[int]:
        out = [(r.slot, n) for n, r in enumerate(self.roles) if r.entity == "interior"]
        return [n for _, n in sorted(out)]

    @property
    def edge_dof_count(self) -> int:
        return len(self.edge_dofs(0))

    @property
    def interior_dof_count(self) -> int:
        return len(self.interior_dofs())

    def edge_closure_dofs(self, edge: int) -> list[int]:
        """Edge DOFs plus the vertex DOFs at the edge's two endpoints."""
        va, vb = EDGE_VERTICES[edge]
        return self.vertex_dofs(va) + self.vertex_dofs(vb) + self.edge_dofs(edge)

    def _deriv_stack(self, order_x: int, order_y: int) -> FloatArray:
        key = (order_x, order_y)
        if key not in self._tab_cache:
            self._tab_cache[key] = _differentiate(stack_coeffs(self.nodal), *key)
        return self._tab_cache[key]

    def tabulate(self, points: FloatArray, deriv: tuple[int, int] = (0, 0)) -> FloatArray:
        """Values of the (deriv_x, deriv_y) derivative of every nodal function.

        points: (npts, 2) reference coordinates.  Returns (npts, dim).
        """
        stack = self._deriv_stack(*deriv)
        u = 2.0 * points[:, 0] - 1.0
        v = 2.0 * points[:, 1] - 1.0
        U = u[:, None] ** np.arange(stack.shape[1])
        V = v[:, None] ** np.arange(stack.shape[2])
        return np.einsum("pi,nij,pj->pn", U, stack, V)


def _enriched_dof_list(k: int) -> tuple[list[DofFunctional], list[DofRole]]:
    dofs: list[DofFunctional] = []
    roles: list[DofRole] = []
    for v, pt in enumerate(VERTICES):
        for slot, kind in enumerate(VERTEX_KINDS):
            dofs.append(DofFunctional(kind, pt))
            roles.append(DofRole("vertex", v, slot))
    for e in range(4):
        slot = 0
        for i in range(1, k - 2):
            dofs.append(DofFunctional(DofKind.VALUE, edge_point(e, i / (k - 2))))
            roles.append(DofRole("edge", e, slot))
            slot += 1
        for i in range(1, k - 3):
            dofs.append(DofFunctional(EDGE_NORMAL_KIND[e], edge_point(e, i / (k - 3))))
            roles.append(DofRole("edge", e, slot))
            slot += 1
    slot = 0
    for i in range(1, k - 6):
        for j in range(1, i + 1):
            dofs.append(DofFunctional(DofKind.VALUE, (i / (k - 2), j / (k - 2))))
            roles.append(DofRole("interior", 0, slot))
            slot += 1
    return dofs, roles


def enriched_dofs(k: int) -> tuple[list[DofFunctional], list[DofRole]]:
    """DOF set of the enriched total-degree element, with topological tags.

    Per edge: k-3 interior values at i/(k-2) and k-4 normal-axis derivatives
    at i/(k-3); plus the 16 vertex DOFs; plus, for k > 7, interior values on
    the triangular lattice (i, j)/(k-2), 1 <= j <= i <= k-7.
    """
    if k < 4:
        raise ValueError(f"degree must be at least 4, got {k}")
    return _enriched_dof_list(k)


def _pk_monomials(k: int) -> list[Poly2D]:
    """Total-degree monomial basis, graded lexicographic (x before y)."""
    out = []
    for d in range(k + 1):
        for i in range(d, -1, -1):
            out.append(Poly2D.monomial(i, d - i))
    return out


def enriched_space(k: int) -> list[Poly2D]:
    """Spanning set: total-degree monomials followed by the selected bubbles."""
    if k < 4:
        raise ValueError(f"degree must be at least 4, got {k}")
    bb = bell_nodal_basis(k)
    return _pk_monomials(k) + [bb.bubble(lab) for lab in select_bubbles(k)]


@lru_cache(maxsize=None)
def enriched_nodal_basis(k: int) -> ElementBasis:
    dofs, roles = enriched_dofs(k)
    span = enriched_space(k)
    if len(dofs) != len(span):
        raise MismatchedCounts(f"{len(span)} span members vs {len(dofs)} DOFs")
    nodal, rcond = dual_nodal_basis(dofs, span)
    return ElementBasis(Family.ENRICHED_P, k, dofs, nodal, roles, rcond)


def _bfs_dof_list(k: int) -> tuple[list[DofFunctional], list[DofRole]]:
    interior = [i / (k - 2) for i in range(1, k - 2)]
    dofs: list[DofFunctional] = []
    roles: list[DofRole] = []
    for v, pt in enumerate(VERTICES):
        for slot, kind in enumerate(VERTEX_KINDS):
            dofs.append(DofFunctional(kind, pt))
            roles.append(DofRole("vertex", v, slot))
    for e in range(4):
        slot = 0
        for t in interior:
            dofs.append(DofFunctional(DofKind.VALUE, edge_point(e, t)))
            roles.append(DofRole("edge", e, slot))
            slot += 1
        for t in interior:
            dofs.append(DofFunctional(EDGE_NORMAL_KIND[e], edge_point(e, t)))
            roles.append(DofRole("edge", e, slot))
            slot += 1
    slot = 0
    for tj in interior:
        for ti in interior:
            dofs.append(DofFunctional(DofKind.VALUE, (ti, tj)))
            roles.append(DofRole("interior", 0, slot))
            slot += 1
    return dofs, roles


@lru_cache(maxsize=None)
def bfs_element(k: int) -> ElementBasis:
    """Tensor-product C1 element of degree k, dimension (k+1)^2.

    The 1-d factor carries value and first derivative at both endpoints plus
    values at the k-3 equispaced interior points; the 2-d DOFs are all
    pairwise products of the 1-d functionals.
    """
    if k < 4:
        raise ValueError(f"degree must be at least 4, got {k}")
    dofs, roles = _bfs_dof_list(k)
    span = [Poly2D.monomial(i, j) for i in range(k + 1) for j in range(k + 1)]
    if len(dofs) != len(span):
        raise MismatchedCounts(f"{len(span)} span members vs {len(dofs)} DOFs")
    nodal, rcond = dual_nodal_basis(dofs, span)
    return ElementBasis(Family.BFS_Q, k, dofs, nodal, roles, rcond)


def element_basis(family: Family, k: int) -> ElementBasis:
    family = Family(family)
    if family is Family.ENRICHED_P:
        return enriched_nodal_basis(k)
    return bfs_element(k)


@dataclass(frozen=True)
class UnisolvencyReport:
    dim: int
    n_dof: int
    rcond: float


def unisolvency_report(family: Family, k: int) -> UnisolvencyReport:
    """Independently recount space dimension and DOFs; they must agree."""
    family = Family(family)
    if family is Family.ENRICHED_P:
        dim = len(enriched_space(k))
        n_dof = len(enriched_dofs(k)[0])
    else:
        dim = (k + 1) ** 2
        n_dof = len(_bfs_dof_list(k)[0])
    if dim != n_dof:
        raise MismatchedCounts(f"dim {dim} != n_dof {n_dof} for {family.value} k={k}")
    return UnisolvencyReport(dim=dim, n_dof=n_dof, rcond=element_basis(family, k).rcond)

