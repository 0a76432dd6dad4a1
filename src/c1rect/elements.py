"""Reference elements on [0,1]^2: the bubble-enriched total-degree family and
the tensor-product Bogner-Fox-Schmit family.

Both families share one DOF layout, which makes global C1 assembly work on
axis-aligned meshes.  Local DOFs are numbered

1. 16 vertex DOFs, vertex-major over ``VERTICES``, each vertex carrying
   value, d/dx, d/dy and d2/dxdy (``VERTEX_KINDS``);
2. per edge (bottom, right, top, left) the same count of edge DOFs: values,
   then derivatives normal to the edge's axis (``EDGE_NORMAL_KIND``), each by
   increasing coordinate along the edge;
3. element-private interior values.

All derivative DOFs are global-axis derivatives, never outward normals, so
neighbouring elements share the exact same functional without sign flips.
Only the edge parameters and interior points differ between the families;
``ElementBasis`` exposes the layout as index ranges.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache

import numpy as np

from .bell import _check_degree, bell_nodal_basis, dual_nodal_basis, select_bubbles
from .poly2d import DofFunctional, DofKind, FloatArray, _differentiate, monomials


class Family(str, Enum):
    ENRICHED_P = "p-enriched"
    BFS_Q = "q-bfs"


#: reference corners in local order: (0,0), (1,0), (1,1), (0,1)
VERTICES = ((0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0))

#: per edge (bottom, right, top, left): the two endpoint vertex indices
EDGE_VERTICES = ((0, 1), (1, 2), (3, 2), (0, 3))

#: derivative kind carried by edge DOFs: normal to the edge's axis
EDGE_NORMAL_KIND = (DofKind.DY, DofKind.DX, DofKind.DY, DofKind.DX)

VERTEX_KINDS = (DofKind.VALUE, DofKind.DX, DofKind.DY, DofKind.DXY)

#: local DOFs on the vertices, which come first in the layout
N_VERTEX_DOFS = len(VERTICES) * len(VERTEX_KINDS)


def edge_point(edge: int, t: float) -> tuple[float, float]:
    """Reference coordinates of parameter t in [0,1] along an edge."""
    if edge not in range(4):
        raise ValueError(f"edge index {edge} out of range")
    return ((t, 0.0), (1.0, t), (t, 1.0), (0.0, t))[edge]


class ElementBasis:
    """Ordered DOF set with its dual nodal basis for one element family.

    The DOFs follow the module's layout, so the vertex, edge and interior
    blocks are index ranges fixed by ``edge_dof_count`` and ``dim``.

    Attributes
    ----------
    family, k : the element family and polynomial degree
    dofs : tuple of DofFunctional on [0,1]^2
    nodal : read-only (dim, k+1, k+1) coefficient stack, dofs[m](nodal[n]) = delta_mn
    edge_dof_count, interior_dof_count : DOFs per edge and in the interior
    rcond : reciprocal condition number of the duality matrix
    """

    def __init__(self, family, k, dofs, nodal, edge_dof_count, rcond):
        self.family = family
        self.k = k
        self.dofs = tuple(dofs)
        self.nodal = nodal
        self.edge_dof_count = edge_dof_count
        self.interior_dof_count = len(self.dofs) - N_VERTEX_DOFS - 4 * edge_dof_count
        self.rcond = rcond
        self.deriv_orders = np.array([d.kind.total_order for d in self.dofs])

    @property
    def dim(self) -> int:
        return len(self.dofs)

    def vertex_dofs(self, vertex: int) -> range:
        n = len(VERTEX_KINDS)
        return range(n * vertex, n * (vertex + 1))

    def edge_dofs(self, edge: int) -> range:
        start = N_VERTEX_DOFS + edge * self.edge_dof_count
        return range(start, start + self.edge_dof_count)

    def interior_dofs(self) -> range:
        return range(N_VERTEX_DOFS + 4 * self.edge_dof_count, self.dim)

    def tabulate(self, points: FloatArray, deriv: tuple[int, int] = (0, 0)) -> FloatArray:
        """Values of the (deriv_x, deriv_y) derivative of every nodal function.

        points: (npts, 2) reference coordinates.  Returns (npts, dim), in
        the dtype of ``points``.
        """
        stack, U, V = self._factors(points[:, 0], points[:, 1], deriv)
        return np.einsum("pi,nij,pj->pn", U, stack, V)

    def tabulate_grid(self, nodes: FloatArray, deriv: tuple[int, int] = (0, 0)) -> FloatArray:
        """:meth:`tabulate` at the grid points a m + b = (nodes[a], nodes[b]) by sum
        factorization (Orszag, J. Comput. Phys. 37, 1980): U @ stack, then @ V^T."""
        stack, U, V = self._factors(nodes, nodes, deriv)
        return (U @ stack @ V.T).transpose(1, 2, 0).reshape(-1, self.dim)

    def _factors(self, x: FloatArray, y: FloatArray, deriv: tuple[int, int]):
        """The differentiated stack and the powers of u = 2x - 1 and v = 2y - 1."""
        stack = _differentiate(self.nodal.astype(x.dtype), *deriv)
        U = (2.0 * x[:, None] - 1.0) ** np.arange(stack.shape[1])
        V = (2.0 * y[:, None] - 1.0) ** np.arange(stack.shape[2])
        return stack, U, V


def _dof_list(values, normals, interior) -> list[DofFunctional]:
    """The shared layout (module docstring) for edge parameters ``values`` and
    ``normals`` in (0, 1) and reference ``interior`` points."""
    dofs = [DofFunctional(kind, pt) for pt in VERTICES for kind in VERTEX_KINDS]
    for e in range(4):
        dofs += [DofFunctional(DofKind.VALUE, edge_point(e, t)) for t in values]
        dofs += [DofFunctional(EDGE_NORMAL_KIND[e], edge_point(e, t)) for t in normals]
    return dofs + [DofFunctional(DofKind.VALUE, pt) for pt in interior]


def enriched_dofs(k: int) -> list[DofFunctional]:
    """DOF set of the enriched total-degree element.

    Per edge: k-3 interior values at i/(k-2) and k-4 normal-axis derivatives
    at i/(k-3); plus the 16 vertex DOFs; plus, for k > 7, interior values on
    the triangular lattice (i, j)/(k-2), 1 <= j <= i <= k-7.
    """
    _check_degree(k)
    return _dof_list([i / (k - 2) for i in range(1, k - 2)],
                     [i / (k - 3) for i in range(1, k - 3)],
                     [(i / (k - 2), j / (k - 2))
                      for i in range(1, k - 6) for j in range(1, i + 1)])


def _pk_monomials(k: int) -> FloatArray:
    """Total-degree monomial basis, graded lexicographic (x before y)."""
    return monomials((i, d - i) for d in range(k + 1) for i in range(d, -1, -1))


def _qk_monomials(k: int) -> FloatArray:
    """Tensor-product monomial basis x^i y^j, 0 <= i, j <= k, i major."""
    return monomials((i, j) for i in range(k + 1) for j in range(k + 1))


def enriched_space(k: int) -> FloatArray:
    """Spanning set: total-degree monomials followed by the selected bubbles."""
    _check_degree(k)
    bb = bell_nodal_basis(k)
    return np.concatenate([_pk_monomials(k), [bb.bubble(lab) for lab in select_bubbles(k)]])


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 is not a cached 4
def enriched_nodal_basis(k: int) -> ElementBasis:
    dofs = enriched_dofs(k)
    nodal, rcond = dual_nodal_basis(dofs, enriched_space(k))
    return ElementBasis(Family.ENRICHED_P, k, dofs, nodal, 2 * k - 7, rcond)


@lru_cache(maxsize=None, typed=True)  # typed: 4.0 is not a cached 4
def bfs_element(k: int) -> ElementBasis:
    """Tensor-product C1 element of degree k, dimension (k+1)^2.

    The 1-d factor carries value and first derivative at both endpoints plus
    values at the k-3 equispaced interior points; the 2-d DOFs are all
    pairwise products of the 1-d functionals.
    """
    _check_degree(k)
    t = [i / (k - 2) for i in range(1, k - 2)]
    dofs = _dof_list(t, t, [(ti, tj) for tj in t for ti in t])
    nodal, rcond = dual_nodal_basis(dofs, _qk_monomials(k))
    return ElementBasis(Family.BFS_Q, k, dofs, nodal, 2 * (k - 3), rcond)


def element_basis(family: Family, k: int) -> ElementBasis:
    return enriched_nodal_basis(k) if Family(family) is Family.ENRICHED_P else bfs_element(k)


@dataclass(frozen=True)
class UnisolvencyReport:
    dim: int
    n_dof: int
    rcond: float


def unisolvency_report(family: Family, k: int) -> UnisolvencyReport:
    """The space dimension from its closed form, dim P_k plus 5, 7 or 8 bubbles
    (k = 4, 5, >= 6) or (k+1)^2, and the DOF count of the layout."""
    family = Family(family)
    basis = element_basis(family, k)
    bubbles = 5 if k == 4 else 7 if k == 5 else 8
    dim = (k + 1) * (k + 2) // 2 + bubbles if family is Family.ENRICHED_P else (k + 1) ** 2
    n_dof = N_VERTEX_DOFS + 4 * basis.edge_dof_count + basis.interior_dof_count
    return UnisolvencyReport(dim=dim, n_dof=n_dof, rcond=basis.rcond)
