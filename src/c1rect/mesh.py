"""Uniform n-by-n square meshes of the unit square and global DOF numbering.

Numbering: elements, vertices and edges are lexicographic by (y, x) of their
lower-left corner or origin, so every id is closed-form in the element index
(i, j).  Global DOFs are the vertex DOFs first, then horizontal-edge DOFs,
then vertical-edge DOFs, then element-interior DOFs, each block ordered by
entity id and then by slot, the DOF's place within its entity in the local
layout (``elements`` module docstring).  Shared entities use the same slot
order from both adjacent elements because that layout enumerates edge DOFs by
increasing coordinate, so the map is orientation-free on axis-aligned meshes.
The h-scaling of DOF values is the business of ``assembly``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .elements import VERTEX_KINDS, ElementBasis
from .poly2d import FloatArray


def is_integer(x) -> bool:
    """An int or a numpy integer, not a bool."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


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
    """Mesh of refinement level 1..MAX_LEVEL, an integer (:func:`is_integer`):
    n = 2^(level-1) subdivisions per side."""
    if not (is_integer(level) and 1 <= level <= MAX_LEVEL):
        raise ValueError(f"refinement level must be in 1..{MAX_LEVEL}, got {level}")
    return RectMesh(n=2 ** (level - 1))


@dataclass(eq=False)
class DofMap:
    """Global DOF numbering for one (mesh, element) pair.

    points/kind_code record each global DOF's physical functional (kind_code
    indexes ``elements.VERTEX_KINDS``) so nodal interpolation never needs to
    revisit elements.
    """

    total: int
    local_to_global: np.ndarray
    is_boundary: np.ndarray
    kind_code: np.ndarray
    points: FloatArray

    @property
    def n_free(self) -> int:
        return int(self.total - np.count_nonzero(self.is_boundary))


def build_dof_map(mesh: RectMesh, basis: ElementBasis) -> DofMap:
    """Number DOFs globally with vertex/edge sharing; no boundary flags yet.

    Each entity's columns of ``local_to_global`` are filled for all elements
    and slots at once from the closed-form entity ids, then each DOF's kind
    and point through the whole table.  Every element that touches a global
    DOF computes its point ``(i + p) / n`` to the same bits.
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
    kind_code = np.empty(total, dtype=np.int8)
    kind_code[l2g] = [VERTEX_KINDS.index(dof.kind) for dof in basis.dofs]
    ref = np.array([dof.point for dof in basis.dofs])
    points = np.empty((total, 2))
    for axis, index in enumerate((i, j)):  # one (element, slot) buffer at a time
        xy = index[:, None] + ref[:, axis]
        points[l2g, axis] = np.divide(xy, mesh.n, out=xy)
    return DofMap(
        total=total,
        local_to_global=l2g,
        is_boundary=np.zeros(total, dtype=bool),
        kind_code=kind_code,
        points=points,
    )


def clamped_flags(dof_map: DofMap) -> DofMap:
    """Flag every DOF whose point lies on a side of the unit square.

    u = du/dn = 0 along the boundary forces all four vertex DOFs there
    (the mixed derivative is the tangential derivative of the normal one)
    and all values and normal derivatives on boundary edges: exactly the
    DOFs whose point has x or y in {0, 1} (exact: :func:`build_dof_map`
    divides by n last).
    """
    xy = dof_map.points
    return replace(dof_map, is_boundary=((xy == 0.0) | (xy == 1.0)).any(axis=1))
