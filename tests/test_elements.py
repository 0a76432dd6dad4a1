from functools import partial

import numpy as np
import pytest

from c1rect.elements import (
    EDGE_VERTICES,
    VERTICES,
    Family,
    bfs_element,
    edge_point,
    element_basis,
    enriched_dofs,
    enriched_nodal_basis,
    enriched_space,
    unisolvency_report,
)
from c1rect.assembly import evaluate_solution
from c1rect.bell import bell_nodal_basis
from c1rect.mesh import build_dof_map, build_mesh
from c1rect.poly2d import DofFunctional, DofKind, _differentiate, monomials, polyval

ENRICHED_DIMS = {4: 20, 5: 28, 6: 36, 7: 44, 8: 53}


def test_enriched_dof_counts(degree):
    assert len(enriched_dofs(degree)) == ENRICHED_DIMS[degree]


def test_enriched_dof_count_k8_formula():
    # 16 vertex + 4*(2k-7) edge + (k-7)(k-6)/2 interior at k = 8
    assert len(enriched_dofs(8)) == 16 + 4 * (2 * 8 - 7) + 1 == 53


def test_vertex_blocks(degree):
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        for v in range(4):
            block = eb.vertex_dofs(v)
            assert len(block) == 4
            kinds = [eb.dofs[n].kind for n in block]
            assert kinds == [DofKind.VALUE, DofKind.DX, DofKind.DY, DofKind.DXY]
            assert all(eb.dofs[n].point == VERTICES[v] for n in block)


def test_edges_carry_normal_axis_derivatives(degree):
    # per edge: values, then normal-axis derivatives, each block at points
    # strictly between the endpoints by increasing coordinate along the edge
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        for edge, normal in ((0, DofKind.DY), (1, DofKind.DX),
                             (2, DofKind.DY), (3, DofKind.DX)):
            dofs = [eb.dofs[n] for n in eb.edge_dofs(edge)]
            kinds = [d.kind for d in dofs]
            n_values = kinds.count(DofKind.VALUE)
            assert kinds == [DofKind.VALUE] * n_values + [normal] * (len(dofs) - n_values)
            pa, pb = (np.array(VERTICES[v]) for v in EDGE_VERTICES[edge])
            for block in (dofs[:n_values], dofs[n_values:]):
                pts = np.array([d.point for d in block]).reshape(-1, 2)
                t = (pts - pa) @ (pb - pa)
                assert np.array_equal(pts, pa + t[:, None] * (pb - pa))
                assert np.all(t > 0) and np.all(t < 1) and np.all(np.diff(t) > 0)


def test_enriched_space_counts():
    assert len(enriched_space(4)) == 15 + 5
    assert len(enriched_space(6)) == 28 + 8


def test_enriched_space_has_full_rank(degree):
    # rank oracle: functionals applied to the spanning set
    span = enriched_space(degree)
    dofs = enriched_dofs(degree)
    V = np.array([[dof(p) for p in span] for dof in dofs])
    assert V.shape[0] == V.shape[1]
    assert np.linalg.matrix_rank(V) == len(span)


def test_element_construction_makes_no_functional_calls(monkeypatch):
    # the duality matrices come from poly2d.functional_matrix, not from
    # 2809 (enriched), 6561 (BFS) and 5929 (Bell) per-entry calls at k = 8
    calls = []
    per_entry = DofFunctional.__call__

    def counted(self, p):
        calls.append(self)
        return per_entry(self, p)

    monkeypatch.setattr(DofFunctional, "__call__", counted)
    enriched_nodal_basis.__wrapped__(8)
    bfs_element.__wrapped__(8)
    bell_nodal_basis.__wrapped__(8)
    assert len(calls) == 0


def test_duality_identity(degree):
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        worst = 0.0
        for m, dof in enumerate(eb.dofs):
            vals = np.array([dof(p) for p in eb.nodal])
            vals[m] -= 1.0
            worst = max(worst, np.max(np.abs(vals)))
        assert worst < 1e-9, f"{family} k={degree}: duality residual {worst:.2e}"


def test_nodal_stacks_are_read_only():
    # the bases are shared singletons, so in-place writes must fail
    for nodal in (element_basis(Family.ENRICHED_P, 4).nodal,
                  element_basis(Family.BFS_Q, 4).nodal, bell_nodal_basis(4).nodal):
        with pytest.raises(ValueError):
            nodal[0, 0, 0] = 1.0
        with pytest.raises(ValueError):
            nodal *= 2.0


def test_matrix_sizes():
    assert enriched_nodal_basis(4).dim == 20
    assert enriched_nodal_basis(5).dim == 28
    assert enriched_nodal_basis(7).dim == 44


def test_bfs_dims(degree):
    assert bfs_element(degree).dim == (degree + 1) ** 2


def test_bfs_rejects_low_degree():
    # a float is not a degree, even 4.0, and the cached k = 4 builds must
    # not answer it
    bfs_element(4), enriched_nodal_basis(4)
    for k in (3, 4.0, 4.5):
        for build in (bfs_element, enriched_dofs, enriched_space,
                      *(partial(element_basis, family) for family in Family)):
            with pytest.raises(ValueError, match="degree must be an integer of at least 4"):
                build(k)


def _random_space_member(family, k, rng):
    if family is Family.ENRICHED_P:
        monos = monomials((i, d - i) for d in range(k + 1) for i in range(d, -1, -1))
    else:
        monos = monomials((i, j) for i in range(k + 1) for j in range(k + 1))
    coeffs = rng.uniform(-1.0, 1.0, size=len(monos))
    acc = coeffs[0] * monos[0]
    for a, m in zip(coeffs[1:], monos[1:]):
        acc = acc + a * m
    return acc


def test_space_reproduction(degree, rng):
    # interpolating a random member of the element's own polynomial space
    # through the DOFs must reproduce it
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        p = _random_space_member(family, degree, rng)
        dof_values = np.array([dof(p) for dof in eb.dofs])
        interp = dof_values[0] * eb.nodal[0]
        for a, phi in zip(dof_values[1:], eb.nodal[1:]):
            interp = interp + a * phi
        scale = max(1.0, float(np.max(np.abs(p))))
        assert np.max(np.abs(interp - p)) / scale < 1e-9


def test_trace_determinacy(degree):
    # zero data on an edge's closure forces value and gradient to vanish there
    ts = np.linspace(0.013, 0.987, 20)
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        for edge in range(4):
            va, vb = EDGE_VERTICES[edge]
            closure = {*eb.vertex_dofs(va), *eb.vertex_dofs(vb), *eb.edge_dofs(edge)}
            pts = np.array([edge_point(edge, t) for t in ts])
            for n in range(eb.dim):
                if n in closure:
                    continue
                phi = eb.nodal[n]
                for deriv in ((0, 0), (1, 0), (0, 1)):
                    vals = polyval(_differentiate(phi, *deriv), pts[:, 0], pts[:, 1])
                    assert np.max(np.abs(vals)) < 1e-9, (
                        f"{family} k={degree} edge {edge} dof {n} {deriv}")


def test_edge_trace_degrees(degree):
    # value traces have degree <= k (bidegree bound); for the enriched family
    # every nodal function inherits the reduced normal-derivative trace of
    # the constrained tensor space, checked relative to its coefficient size
    from c1rect.bell import constraint_residuals

    k = degree
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, k)
        assert eb.nodal.shape == (eb.dim, k + 1, k + 1)
        if family is Family.ENRICHED_P:
            for phi in eb.nodal:
                scale = max(1.0, float(np.max(np.abs(phi))))
                res = np.max(np.abs(constraint_residuals(k, phi)))
                assert res / scale < 1e-12


def test_unisolvency_reports():
    rep = unisolvency_report(Family.ENRICHED_P, 4)
    assert rep.dim == rep.n_dof == 20
    rep = unisolvency_report(Family.ENRICHED_P, 8)
    assert rep.dim == rep.n_dof == 53 == 8 * 8 // 2 + 3 * 8 // 2 + 9
    rep = unisolvency_report(Family.ENRICHED_P, 6)
    assert rep.dim == rep.n_dof == 36
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        for k in range(4, 9):
            rep = unisolvency_report(family, k)
            assert rep.dim == rep.n_dof
            assert rep.rcond > 1e-12


def _unit_coeffs(dm, e, n):
    """Global coefficients of element e's n-th physical nodal function."""
    coeffs = np.zeros(dm.total)
    coeffs[dm.local_to_global[e, n]] = 1.0
    return coeffs


def test_physical_basis_identity_at_unit_size(degree):
    # on the one-element mesh (h = 1) every physical nodal function is the
    # reference one
    eb = element_basis(Family.ENRICHED_P, degree)
    mesh = build_mesh(1)
    dm = build_dof_map(mesh, eb)
    x, y = 0.3, 0.8
    for n in range(eb.dim):
        got = evaluate_solution(dm, _unit_coeffs(dm, 0, n), x, y, element=0)
        assert got == pytest.approx(float(polyval(eb.nodal[n], x, y)), rel=1e-13)


def test_physical_interpolation_of_linear(rng):
    # interpolating u(x, y) = x on [x0, x0+h]^2 via physical DOFs is exact
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(3)
    dm = build_dof_map(mesh, eb)
    h, x0, y0 = 0.25, 0.5, 0.25
    e = mesh.element_id(2, 1)
    assert mesh.h == h and mesh.element_corner(e) == (x0, y0)
    coeffs = np.zeros(dm.total)
    for n, dof in enumerate(eb.dofs):
        px = x0 + h * dof.point[0]
        coeffs[dm.local_to_global[e, n]] = {DofKind.VALUE: px, DofKind.DX: 1.0,
                                             DofKind.DY: 0.0, DofKind.DXY: 0.0}[dof.kind]
    for _ in range(10):
        x = x0 + h * rng.uniform(0, 1)
        y = y0 + h * rng.uniform(0, 1)
        got = evaluate_solution(dm, coeffs, x, y, element=e)
        assert got == pytest.approx(x, abs=1e-12)


def test_physical_second_derivative_scaling(rng):
    eb = element_basis(Family.BFS_Q, 4)
    mesh = build_mesh(4)
    dm = build_dof_map(mesh, eb)
    h = 0.125
    assert mesh.h == h
    n = eb.dim // 2
    scale = h ** float(eb.deriv_orders[n])
    for _ in range(5):
        xi, eta = rng.uniform(0, 1, size=2)
        ref = float(polyval(_differentiate(eb.nodal[n], 2, 0), xi, eta))
        phys = evaluate_solution(dm, _unit_coeffs(dm, 0, n), h * xi, h * eta,
                                 deriv=(2, 0), element=0)
        assert phys == pytest.approx(ref * scale / h**2, rel=1e-12)


def test_edge_point_covers_vertices():
    for edge, (va, vb) in enumerate(EDGE_VERTICES):
        assert edge_point(edge, 0.0) == VERTICES[va]
        assert edge_point(edge, 1.0) == VERTICES[vb]


def test_interior_dofs():
    assert element_basis(Family.ENRICHED_P, 8).interior_dof_count == 1
    assert element_basis(Family.ENRICHED_P, 7).interior_dof_count == 0
    assert element_basis(Family.BFS_Q, 4).interior_dof_count == 1
    assert element_basis(Family.BFS_Q, 8).interior_dof_count == 25
    dof = element_basis(Family.ENRICHED_P, 8).dofs[
        element_basis(Family.ENRICHED_P, 8).interior_dofs()[0]]
    assert dof.point == (1 / 6, 1 / 6)
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        for k in range(4, 9):
            eb = element_basis(family, k)
            assert len(eb.interior_dofs()) == eb.interior_dof_count
            for n in eb.interior_dofs():
                x, y = eb.dofs[n].point
                assert eb.dofs[n].kind is DofKind.VALUE and 0 < x < 1 and 0 < y < 1
