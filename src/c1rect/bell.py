"""Bell-type constrained tensor-product space and its dual nodal basis.

The local space of degree k is the subspace of the full tensor space Q_k on
[0,1]^2 whose normal derivative along every edge has degree at most k-1 in
the edge parameter.  Its nodal basis (dual to a lattice of point values,
edge-normal first derivatives at the corners' columns/rows, and corner mixed
derivatives) supplies the "bubble" functions used to enrich the total-degree
space in :mod:`c1rect.elements`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .poly2d import (DofFunctional, DofKind, FloatArray, Poly2D, functional_matrix,
                     stack_coeffs)

#: reciprocal-condition floor below which a duality matrix is treated as singular
RCOND_FLOOR = 1e-14

#: (block, i, j) label; blocks: 1 = value, 2 = d/dx, 3 = d/dy, 4 = d2/dxdy
Label = tuple[int, int, int]


class SingularDofMatrix(RuntimeError):
    """Duality matrix numerically singular; indicates an implementation bug."""


def _check_degree(k: int) -> None:
    if k < 4:
        raise ValueError(f"degree must be at least 4, got {k}")


def bell_labels(k: int) -> list[Label]:
    """Canonical ordering: value block, then dx, dy, dxy blocks, lexicographic."""
    _check_degree(k)
    labels: list[Label] = []
    labels += [(1, i, j) for i in range(k - 1) for j in range(k - 1)]
    labels += [(2, i, j) for i in (0, 1) for j in range(k - 2)]
    labels += [(3, i, j) for i in range(k - 2) for j in (0, 1)]
    labels += [(4, i, j) for i in (0, 1) for j in (0, 1)]
    return labels


def _label_functional(k: int, label: Label) -> DofFunctional:
    block, i, j = label
    if block == 1:
        return DofFunctional(DofKind.VALUE, (i / (k - 2), j / (k - 2)))
    if block == 2:
        return DofFunctional(DofKind.DX, (float(i), j / (k - 3)))
    if block == 3:
        return DofFunctional(DofKind.DY, (i / (k - 3), float(j)))
    if block == 4:
        return DofFunctional(DofKind.DXY, (float(i), float(j)))
    raise ValueError(f"unknown block {block}")


def bell_dofs(k: int) -> list[DofFunctional]:
    """Degrees of freedom on [0,1]^2 in the canonical label order.

    Value lattice (k-1)^2 at (i, j)/(k-2); d/dx on the two vertical edges at
    heights j/(k-3); d/dy on the two horizontal edges at abscissae i/(k-3);
    mixed corner derivatives.  For k = 4 the first-derivative blocks
    degenerate to the corners, which is accepted.
    """
    return [_label_functional(k, lab) for lab in bell_labels(k)]


def _null_space(A: FloatArray) -> list[FloatArray]:
    """Null-space basis by row reduction with partial pivoting.

    Each free column yields one basis vector with back-substituted pivot
    entries, so vectors stay close to single monomials.
    """
    A = np.array(A, dtype=float)
    m, n = A.shape
    pivots: list[int] = []
    row = 0
    for col in range(n):
        if row == m:
            break
        p = row + int(np.argmax(np.abs(A[row:, col])))
        if abs(A[p, col]) < 1e-12:
            continue
        A[[row, p]] = A[[p, row]]
        A[row] /= A[row, col]
        for r in range(m):
            if r != row:
                A[r] -= A[r, col] * A[row]
        pivots.append(col)
        row += 1
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        v = np.zeros(n)
        v[free] = 1.0
        for r, pc in enumerate(pivots):
            v[pc] = -A[r, free]
        basis.append(v)
    return basis


def _edge_constraint_matrix(k: int) -> FloatArray:
    """Rows annihilating the degree-k term of each edge's normal-derivative trace.

    Expressed on normalized coefficients c[i, j] of u^i v^j: the trace of
    d/dx on the edges u = -1, +1 is a polynomial in v whose v^k coefficient
    is sum_i 2i c[i, k] (+-1)^(i-1); likewise with rows and columns swapped
    for the horizontal edges.
    """
    n = (k + 1) ** 2
    A = np.zeros((4, n))
    for i in range(1, k + 1):
        A[0, i * (k + 1) + k] = 2.0 * i * (-1.0) ** (i - 1)
        A[1, i * (k + 1) + k] = 2.0 * i
    for j in range(1, k + 1):
        A[2, k * (k + 1) + j] = 2.0 * j * (-1.0) ** (j - 1)
        A[3, k * (k + 1) + j] = 2.0 * j
    return A


def constraint_residuals(k: int, p: Poly2D) -> FloatArray:
    """The four edge-constraint values for p; all ~0 iff p is in the space."""
    c = p.padded(k, k).ravel()
    return _edge_constraint_matrix(k) @ c


def bell_space(k: int) -> list[Poly2D]:
    """Spanning basis of the constrained space, dimension (k+1)^2 - 4."""
    _check_degree(k)
    vecs = _null_space(_edge_constraint_matrix(k))
    return [Poly2D(v.reshape(k + 1, k + 1)) for v in vecs]


def dual_nodal_basis(
    dofs: list[DofFunctional], span: list[Poly2D]
) -> tuple[list[Poly2D], float]:
    """Nodal basis dual to ``dofs`` spanning the same space as ``span``.

    The span's coefficient vectors are orthonormalized (QR) before the
    generalized Vandermonde V[m, n] = dofs[m](span[n]) is formed, and the
    inverse is taken through the SVD; both steps are needed for the duality
    certificate to hold to 1e-9 at degree 8.  Returns the basis and the
    reciprocal condition number of V.

    Raises SingularDofMatrix when V is numerically singular, which would
    contradict unisolvency and therefore flags an implementation bug.
    """
    if len(dofs) != len(span):
        raise ValueError(f"{len(dofs)} functionals vs {len(span)} span members")
    S = stack_coeffs(span)
    Q, _ = np.linalg.qr(S.reshape(len(span), -1).T)
    qpolys = [Poly2D(q.reshape(S.shape[1:])) for q in Q.T]
    V = functional_matrix(dofs, qpolys)
    rcond = float(1.0 / np.linalg.cond(V))
    if not np.isfinite(rcond) or rcond < RCOND_FLOOR:
        raise SingularDofMatrix(
            f"duality matrix of size {V.shape[0]} has rcond {rcond:.3e}"
        )
    eye = np.eye(len(span))
    # The SVD inverse keeps both duality residuals (V C - I, which the
    # certificate measures, and C V - I, which controls interpolation) at
    # the eps/rcond floor; partial-pivot solves leave the left one large.
    C = np.linalg.pinv(V)
    residual = float(np.max(np.abs(V @ C - eye)))
    if residual > 1e-8:
        raise SingularDofMatrix(f"duality residual {residual:.3e} after refinement")
    coeffs = np.einsum("jn,jab->nab", C, Q.T.reshape(S.shape))
    return [Poly2D(coeffs[n]) for n in range(len(span))], rcond


@dataclass(frozen=True, eq=False)
class BellBasis:
    """Nodal basis of the constrained space, dual to its degrees of freedom."""

    k: int
    dofs: tuple[DofFunctional, ...]
    labels: tuple[Label, ...]
    nodal: tuple[Poly2D, ...]
    index: dict[Label, int]
    rcond: float

    def bubble(self, label: Label) -> Poly2D:
        return self.nodal[self.index[label]]


@lru_cache(maxsize=None)
def bell_nodal_basis(k: int) -> BellBasis:
    """Construct and certify the nodal basis dual to :func:`bell_dofs`."""
    labels = bell_labels(k)
    dofs = bell_dofs(k)
    nodal, rcond = dual_nodal_basis(dofs, bell_space(k))
    return BellBasis(
        k=k,
        dofs=tuple(dofs),
        labels=tuple(labels),
        nodal=tuple(nodal),
        index={lab: n for n, lab in enumerate(labels)},
        rcond=rcond,
    )


def select_bubbles(k: int) -> list[Label]:
    """Labels of the nodal functions used to enrich the total-degree space.

    All selected functions attach to the bottom edge and the (1, 0) corner:
    5 for k = 4, 7 for k = 5 and 8 for k >= 6.  For k = 5 the x-derivative
    bubble at the corner is (2, 1, 0), the only in-range label for that
    functional location.
    """
    _check_degree(k)
    if k == 4:
        return [(1, 1, 0), (1, 2, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0)]
    if k == 5:
        return [(1, 1, 0), (1, 2, 0), (1, 3, 0), (3, 1, 0), (2, 1, 0),
                (3, 2, 0), (4, 1, 0)]
    return [(1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 2, 0), (1, k - 2, 0),
            (2, 1, 0), (3, k - 3, 0), (4, 1, 0)]
