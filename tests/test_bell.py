import numpy as np
import pytest

from c1rect.bell import (
    bell_dofs,
    bell_labels,
    bell_nodal_basis,
    bell_space,
    constraint_residuals,
    select_bubbles,
)
from c1rect.poly2d import DofKind, _differentiate, monomials, polyval


def kind_counts(dofs):
    out = {k: 0 for k in DofKind}
    for d in dofs:
        out[d.kind] += 1
    return out


def test_dof_count_k4():
    dofs = bell_dofs(4)
    assert len(dofs) == 21
    counts = kind_counts(dofs)
    assert counts[DofKind.VALUE] == 9
    assert counts[DofKind.DX] == 4
    assert counts[DofKind.DY] == 4
    assert counts[DofKind.DXY] == 4


def test_dof_count_k5_includes_midpoint_dy():
    # (k-1)^2 + 4(k-2) + 4 = 32 at k = 5
    dofs = bell_dofs(5)
    assert len(dofs) == 32 == (5 + 1) ** 2 - 4
    dy_points = {d.point for d in dofs if d.kind is DofKind.DY}
    assert (0.5, 0.0) in dy_points


def test_dof_count_k8():
    # (k-1)^2 + 4(k-2) + 4 with k = 8
    assert len(bell_dofs(8)) == 77 == (8 + 1) ** 2 - 4


# a float is not a degree, even 4.0
@pytest.mark.parametrize("bad_k", [0, 1, 2, 3, 4.0, 4.5])
def test_rejects_low_degree(bad_k):
    with pytest.raises(ValueError):
        bell_dofs(bad_k)
    with pytest.raises(ValueError):
        bell_space(bad_k)
    with pytest.raises(ValueError):
        select_bubbles(bad_k)
    with pytest.raises(ValueError):
        bell_nodal_basis(bad_k)  # 4.0 is not the cached 4


def test_space_dimension(degree):
    k = degree
    basis = bell_space(k)
    assert len(basis) == (k + 1) ** 2 - 4
    assert basis.shape == (len(basis), k + 1, k + 1)
    assert np.linalg.matrix_rank(basis.reshape(len(basis), -1)) == len(basis)


def test_space_members_satisfy_constraints(degree):
    k = degree
    assert np.max(np.abs(constraint_residuals(k, bell_space(k)))) < 1e-10


def test_xy4_not_in_space_k4():
    # d/dx trace on the edge x=0 is y^4, one degree too high
    p = monomials([(1, 4)])[0]
    res = constraint_residuals(4, p)
    assert abs(res[0]) > 1e-3
    ys = np.linspace(0.0, 1.0, 7)
    trace = polyval(_differentiate(p, 1, 0), 0.0, ys)
    assert np.allclose(trace, ys**4, rtol=1e-12, atol=1e-14)


def test_members_have_reduced_normal_trace(degree):
    # d/dx p(0, y) must lose its y^k term, 2^k times its v^k term in
    # v = 2y - 1: the sum over i of dx[i, k] u^i at u = -1
    k = degree
    for p in bell_space(k):
        vk = polyval(_differentiate(p, 1, 0)[:, k:], 0.0, 0.0)
        assert abs(2**k * vk) < 1e-10


def test_duality_identity(degree):
    k = degree
    bb = bell_nodal_basis(k)
    n = len(bb.nodal)
    worst = 0.0
    for m, dof in enumerate(bb.dofs):
        vals = np.array([dof(bb.nodal[j]) for j in range(n)])
        vals[m] -= 1.0
        worst = max(worst, np.max(np.abs(vals)))
    assert worst < 1e-9


def test_duality_matrix_well_conditioned(degree):
    bb = bell_nodal_basis(degree)
    assert bb.rcond > 1e-12


def test_nodal_members_lie_in_constrained_space(degree):
    k = degree
    bb = bell_nodal_basis(k)
    assert np.max(np.abs(constraint_residuals(k, bb.nodal))) < 1e-10


def test_corner_mixed_dual_k4():
    bb = bell_nodal_basis(4)
    b = bb.bubble((4, 1, 0))
    for corner, expected in (((1.0, 0.0), 1.0), ((0.0, 0.0), 0.0),
                             ((1.0, 1.0), 0.0), ((0.0, 1.0), 0.0)):
        val = polyval(_differentiate(b, 1, 1), *corner)
        assert val == pytest.approx(expected, abs=1e-10)


def test_value_block_interpolates_constant(degree):
    # setting every value DOF to 1 and derivative DOFs to 0 rebuilds p = 1;
    # eps over the duality rcond floors the residual near 1e-9 at k = 8
    k = degree
    bb = bell_nodal_basis(k)
    acc = np.zeros((k + 1, k + 1))
    for lab, p in zip(bb.labels, bb.nodal):
        if lab[0] == 1:
            acc = acc + p
    one = monomials([(0, 0)])[0]
    tol = 1e-10 if k <= 7 else 1e-9
    assert np.max(np.abs(acc - np.pad(one, (0, k)))) < tol


def test_bubble_selection_counts():
    assert [len(select_bubbles(k)) for k in range(4, 9)] == [5, 7, 8, 8, 8]


def test_bubble_labels_k4():
    assert select_bubbles(4) == [(1, 1, 0), (1, 2, 0), (2, 1, 0), (3, 1, 0), (4, 1, 0)]


def test_bubble_labels_k6():
    assert select_bubbles(6) == [(1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 2, 0),
                                 (1, 4, 0), (2, 1, 0), (3, 3, 0), (4, 1, 0)]


def test_bubble_functional_locations_k5():
    # values at the bottom-edge thirds and corner, d/dy at the bottom midpoint,
    # d/dx, d/dy, d2/dxdy at the (1, 0) corner
    bb = bell_nodal_basis(5)
    located = []
    for lab in select_bubbles(5):
        idx = bb.index[lab]
        dof = bb.dofs[idx]
        located.append((dof.kind, dof.point))
    assert (DofKind.VALUE, (1 / 3, 0.0)) in located
    assert (DofKind.VALUE, (2 / 3, 0.0)) in located
    assert (DofKind.VALUE, (1.0, 0.0)) in located
    assert (DofKind.DY, (0.5, 0.0)) in located
    assert (DofKind.DX, (1.0, 0.0)) in located
    assert (DofKind.DY, (1.0, 0.0)) in located
    assert (DofKind.DXY, (1.0, 0.0)) in located


def test_labels_align_with_dofs(degree):
    labels = bell_labels(degree)
    dofs = bell_dofs(degree)
    assert len(labels) == len(dofs)
    bb = bell_nodal_basis(degree)
    for lab, idx in bb.index.items():
        assert bb.labels[idx] == lab
