"""Uniform n-by-n square meshes of the unit square and global DOF numbering.

Numbering: elements, vertices and edges are lexicographic by (y, x) of their
lower-left corner or origin, so every id is closed-form in the element index
(i, j).  Global DOFs are the vertex DOFs first, then horizontal-edge DOFs,
then vertical-edge DOFs, then element-interior DOFs, each block ordered by
entity id and then by slot, the DOF's place within its entity in the local
layout (``elements`` module docstring).  Shared entities use the same slot
order from both adjacent elements because that layout enumerates edge DOFs by
increasing coordinate, so the map is orientation-free on axis-aligned meshes.
Numbering and boundary flags form no DOF points.  The h-scaling of DOF values
is the business of ``assembly``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .elements import VERTEX_KINDS, ElementBasis
from .poly2d import FloatArray, is_integer


@dataclass(frozen=True)
class RectMesh:
    """Uniform n x n mesh of [0,1]^2 with implicit structured topology."""

    n: int

    def __post_init__(self):
        if not (is_integer(self.n) and self.n >= 1):
            raise ValueError(f"subdivisions per side must be a positive integer, got {self.n!r}")

    @property
    def h(self) -> float:
        return 1.0 / self.n

    @property
    def n_elements(self) -> int:
        return self.n * self.n

    @property
    def n_vertices(self) -> int:
        return (self.n + 1) ** 2

    @property
    def n_h_edges(self) -> int:
        return self.n * (self.n + 1)

    @property
    def n_v_edges(self) -> int:
        return self.n * (self.n + 1)

    @property
    def n_edges(self) -> int:
        return self.n_h_edges + self.n_v_edges

    # -- entity indexing (lexicographic by (y, x)) ----------------------

    def vertex_id(self, i: int, j: int) -> int:
        return j * (self.n + 1) + i

    def h_edge_id(self, i: int, j: int) -> int:
        """Horizontal edge from vertex (i, j) to (i+1, j); i < n, j <= n."""
        return j * self.n + i

    def v_edge_id(self, i: int, j: int) -> int:
        """Vertical edge from vertex (i, j) to (i, j+1); i <= n, j < n."""
        return j * (self.n + 1) + i

    def element_id(self, i: int, j: int) -> int:
        return j * self.n + i

    def element_index(self, e: int) -> tuple[int, int]:
        j, i = divmod(e, self.n)
        return i, j

    def element_corner(self, e: int) -> tuple[float, float]:
        i, j = self.element_index(e)
        return i * self.h, j * self.h

    def locate(self, x: float, y: float) -> int:
        """Element containing (x, y); boundary points break ties right/top."""
        if not (0.0 <= x <= 1.0 and 0.0 <= y <= 1.0):
            raise ValueError(f"point ({x}, {y}) outside the unit square")
        i = min(int(x * self.n), self.n - 1)
        j = min(int(y * self.n), self.n - 1)
        return self.element_id(i, j)


#: finest refinement level: at level 17 the local-to-global table alone
#: (4^16 elements by at least 20 int64 local DOFs) exceeds 680 GB
MAX_LEVEL = 16


def build_mesh(level: int) -> RectMesh:
    """Mesh of refinement level 1..MAX_LEVEL, an integer (:func:`poly2d.is_integer`):
    n = 2^(level-1) subdivisions per side."""
    if not (is_integer(level) and 1 <= level <= MAX_LEVEL):
        raise ValueError(f"refinement level must be in 1..{MAX_LEVEL}, got {level}")
    return RectMesh(n=2 ** (level - 1))


@dataclass(eq=False)
class DofMap:
    """The discrete space: global DOF numbering of one element basis on one
    mesh, both carried, so every function that takes a map reads them here.

    ``points`` and ``kind_code`` (an index into ``elements.VERTEX_KINDS``)
    give each global DOF's physical functional for nodal interpolation; no
    solve reads them, so each is formed on first read and kept.
    """

    total: int
    local_to_global: np.ndarray
    is_boundary: np.ndarray
    mesh: RectMesh = field(repr=False)
    basis: ElementBasis = field(repr=False)

    def __post_init__(self):
        if self.local_to_global.shape != (self.mesh.n_elements, self.basis.dim):
            raise ValueError(f"local_to_global of shape {self.local_to_global.shape} for "
                             f"{self.mesh.n_elements} elements of {self.basis.dim} local DOFs")
        if len(self.is_boundary) != self.total:
            raise ValueError(f"{len(self.is_boundary)} boundary flags for {self.total} DOFs")

    @cached_property
    def kind_code(self) -> np.ndarray:
        kind_code = np.empty(self.total, dtype=np.int8)
        kind_code[self.local_to_global] = [VERTEX_KINDS.index(d.kind) for d in self.basis.dofs]
        return kind_code

    @cached_property
    def points(self) -> FloatArray:
        """(total, 2): ``(i + p) / n`` per axis for element (i, j) and slot
        point p, the same bits from every element that touches the DOF."""
        ref = np.array([dof.point for dof in self.basis.dofs])
        points = np.empty((self.total, 2))
        for axis, index in enumerate(self.mesh.element_index(np.arange(self.mesh.n_elements))):
            xy = index[:, None] + ref[:, axis]  # one (element, slot) buffer at a time
            points[self.local_to_global, axis] = np.divide(xy, self.mesh.n, out=xy)
        return points


def build_dof_map(mesh: RectMesh, basis: ElementBasis) -> DofMap:
    """Number DOFs globally with vertex/edge sharing; no boundary flags yet.

    Each entity's columns of ``local_to_global`` are filled for all elements
    and slots at once from the closed-form entity ids.
    """
    nv = len(basis.vertex_dofs(0))
    ne = basis.edge_dof_count
    ni = basis.interior_dof_count
    h_base = nv * mesh.n_vertices
    v_base = h_base + ne * mesh.n_h_edges
    i_base = v_base + ne * mesh.n_v_edges
    total = i_base + ni * mesh.n_elements

    elems = np.arange(mesh.n_elements)
    i, j = mesh.element_index(elems)
    # per local entity (corners (0,0), (1,0), (1,1), (0,1), then edges bottom,
    # right, top, left, then the interior): the global number of its first
    # DOF per element and its local DOFs
    verts = (mesh.vertex_id(i, j), mesh.vertex_id(i + 1, j),
             mesh.vertex_id(i + 1, j + 1), mesh.vertex_id(i, j + 1))
    edges = (h_base + ne * mesh.h_edge_id(i, j), v_base + ne * mesh.v_edge_id(i + 1, j),
             h_base + ne * mesh.h_edge_id(i, j + 1), v_base + ne * mesh.v_edge_id(i, j))
    blocks = [(nv * ids, basis.vertex_dofs(v)) for v, ids in enumerate(verts)]
    blocks += [(first, basis.edge_dofs(e)) for e, first in enumerate(edges)]
    blocks.append((i_base + ni * elems, basis.interior_dofs()))

    l2g = np.empty((mesh.n_elements, basis.dim), dtype=np.int64)
    for first_dof, local in blocks:
        l2g[:, local.start:local.stop] = first_dof[:, None] + np.arange(len(local))
    return DofMap(total=total, local_to_global=l2g, is_boundary=np.zeros(total, dtype=bool),
                  mesh=mesh, basis=basis)


def clamped_flags(dof_map: DofMap) -> DofMap:
    """Flag every DOF whose point has x or y in {0, 1}: u = du/dn = 0 along
    the boundary forces all four vertex DOFs there (the mixed derivative is
    the tangential derivative of the normal one) and all values and normal
    derivatives on boundary edges.  No point is formed: x = (i + p)/n is 0
    exactly when i = 0 and p = 0, and 1 exactly when i = n - 1 and p = 1,
    for element column i and the slot's reference coordinate p; y likewise
    with element row j.
    """
    ref = np.array([dof.point for dof in dof_map.basis.dofs])
    by_row = dof_map.local_to_global.reshape(dof_map.mesh.n, dof_map.mesh.n, -1)  # (j, i, slot)
    flags = np.zeros(dof_map.total, dtype=bool)
    for axis, lines in enumerate((by_row.transpose(1, 0, 2), by_row)):
        for line, p in ((lines[0], 0.0), (lines[-1], 1.0)):
            flags[line[:, ref[:, axis] == p]] = True
    return replace(dof_map, is_boundary=flags)
