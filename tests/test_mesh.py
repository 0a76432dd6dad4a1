import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from c1rect.elements import VERTEX_KINDS, Family, element_basis
from c1rect.mesh import MAX_LEVEL, DofMap, RectMesh, build_dof_map, build_mesh, clamped_flags
from c1rect.study import expected_dim


def test_build_mesh_levels():
    assert build_mesh(1).n_elements == 1
    assert build_mesh(1).h == 1.0
    m3 = build_mesh(3)
    assert m3.n_elements == 16 and m3.h == 0.25
    assert build_mesh(5).n_elements == 256
    with pytest.raises(ValueError):
        build_mesh(0)
    assert build_mesh(MAX_LEVEL).n == 2 ** 15
    with pytest.raises(ValueError, match="must be in 1..16, got 17"):
        build_mesh(MAX_LEVEL + 1)


def test_entity_counts():
    m = build_mesh(3)
    assert m.n_vertices == 25
    assert m.n_edges == 2 * m.n * (m.n + 1) == 40


def test_locate_breaks_ties_right_top():
    m = build_mesh(2)
    assert m.locate(0.5, 0.25) == m.element_id(1, 0)
    assert m.locate(0.25, 0.5) == m.element_id(0, 1)
    assert m.locate(1.0, 1.0) == m.element_id(1, 1)
    with pytest.raises(ValueError):
        m.locate(1.2, 0.5)


TOTALS = [
    (Family.ENRICHED_P, 4, 2, 48),   # 4*9 + 1*12
    (Family.ENRICHED_P, 5, 3, 220),  # 4*25 + 3*40
    (Family.BFS_Q, 6, 2, 144),       # (5n+2)^2 at n=2
]


@pytest.mark.parametrize("family,k,level,total", TOTALS)
def test_dof_totals(family, k, level, total):
    mesh = build_mesh(level)
    dm = build_dof_map(mesh, element_basis(family, k))
    assert dm.total == total == expected_dim(family, k, mesh.n)


def test_sharing_consistency(degree):
    # both elements adjacent to an interior edge must reconstruct the same
    # physical functional for every shared global DOF
    for family in (Family.ENRICHED_P, Family.BFS_Q):
        eb = element_basis(family, degree)
        mesh = build_mesh(3)
        dm = build_dof_map(mesh, eb)
        h = mesh.h
        shared = {}
        for e in range(mesh.n_elements):
            x0, y0 = mesh.element_corner(e)
            for n, dof in enumerate(eb.dofs):
                g = dm.local_to_global[e, n]
                key = (dof.kind, round(x0 + h * dof.point[0], 12),
                       round(y0 + h * dof.point[1], 12))
                if g in shared:
                    assert shared[g] == key, f"{family} k={degree} dof {g}"
                else:
                    shared[g] = key
        assert len(shared) == dm.total


def test_entity_ownership_complete():
    mesh = build_mesh(2)
    eb = element_basis(Family.ENRICHED_P, 8)
    dm = build_dof_map(mesh, eb)
    # a DOF's entity from its point: x on a vertical grid line, y on a
    # horizontal one, both for a vertex, neither for an element interior
    on_x, on_y = (dm.points * mesh.n % 1.0 == 0.0).T
    assert np.count_nonzero(on_x & on_y) == 4 * mesh.n_vertices
    assert np.count_nonzero(on_y & ~on_x) == 9 * mesh.n_h_edges
    assert np.count_nonzero(on_x & ~on_y) == 9 * mesh.n_v_edges
    assert np.count_nonzero(~on_x & ~on_y) == mesh.n_elements


def _free(dm):
    """The number of free (unconstrained) global DOFs."""
    return dm.total - int(np.count_nonzero(dm.is_boundary))


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 6])
def test_clamped_flags_off_powers_of_two(family, n):
    # points on the sides stay exact where h = 1/n is inexact: every DOF of
    # an interior vertex, edge or element is free, every other one clamped
    eb = element_basis(family, 4)
    mesh = RectMesh(n)
    dm = clamped_flags(build_dof_map(mesh, eb))
    assert _free(dm) == (len(eb.vertex_dofs(0)) * (n - 1) ** 2
                         + eb.edge_dof_count * 2 * n * (n - 1)
                         + eb.interior_dof_count * n * n)


@pytest.mark.parametrize("level", [True, 2.5, 3.0, "3"])
def test_build_mesh_rejects_non_integer_level(level):
    # build_mesh(True) built level 1; 2.5 and 3.0 failed in RectMesh with
    # the message of the mesh size
    with pytest.raises(ValueError, match=f"refinement level must be in 1..16, got {level}"):
        build_mesh(level)


def test_build_mesh_accepts_numpy_integer_level():
    assert build_mesh(np.int64(3)) == build_mesh(3) == RectMesh(4)


@pytest.mark.parametrize("n", [2.5, 4.0, True, "4", 0])
def test_mesh_rejects_non_integer_size(n):
    # RectMesh(2.5) took h = 0.4 and raised a bare TypeError in build_dof_map
    with pytest.raises(ValueError, match="must be a positive integer"):
        RectMesh(n)
    assert RectMesh(np.int64(4)).h == 0.25


def test_clamped_level1_all_constrained():
    mesh = build_mesh(1)
    dm = clamped_flags(build_dof_map(mesh, element_basis(Family.ENRICHED_P, 4)))
    assert dm.total == 20
    assert dm.is_boundary.all()
    assert _free(dm) == 0


def test_clamped_level2_free_count():
    # free: 4 DOFs at the center vertex plus 1 value on each interior edge
    mesh = build_mesh(2)
    dm = clamped_flags(build_dof_map(mesh, element_basis(Family.ENRICHED_P, 4)))
    assert _free(dm) == 4 + 4


@pytest.mark.parametrize("family,k,level", [
    (Family.ENRICHED_P, 5, 3), (Family.BFS_Q, 4, 3), (Family.ENRICHED_P, 8, 2),
])
def test_flag_complement_count(family, k, level):
    eb = element_basis(family, k)
    mesh = build_mesh(level)
    dm = clamped_flags(build_dof_map(mesh, eb))
    n = mesh.n
    per_edge = eb.edge_dof_count
    per_int = eb.interior_dof_count
    free = 4 * (n - 1) ** 2 + per_edge * 2 * n * (n - 1) + per_int * n * n
    assert _free(dm) == free
    assert int(np.count_nonzero(dm.is_boundary)) == dm.total - free


def test_flag_soundness(rng):
    # any function with zero constrained DOFs vanishes with its gradient
    # along the boundary
    from c1rect.assembly import evaluate_solution

    eb = element_basis(Family.ENRICHED_P, 5)
    mesh = build_mesh(2)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = rng.standard_normal(dm.total)
    coeffs[dm.is_boundary] = 0.0
    worst = 0.0
    for t in rng.uniform(0, 1, size=20):
        for x, y in ((t, 0.0), (t, 1.0), (0.0, t), (1.0, t)):
            for deriv in ((0, 0), (1, 0), (0, 1)):
                worst = max(worst, abs(evaluate_solution(
                    dm, coeffs, x, y, deriv)))
    assert worst < 1e-9


def test_interpolation_points_recorded():
    mesh = build_mesh(2)
    eb = element_basis(Family.BFS_Q, 5)
    dm = build_dof_map(mesh, eb)
    # every recorded point lies in the unit square and every DOF kind occurs
    assert np.all(dm.points >= -1e-12) and np.all(dm.points <= 1 + 1e-12)
    assert set(np.unique(dm.kind_code)) == {0, 1, 2, 3}


def _loop_dof_map(mesh, basis):
    """The numbering of ``build_dof_map`` with one pass per local DOF: the
    reference for its per-entity broadcast."""
    nv, ne, ni = len(basis.vertex_dofs(0)), basis.edge_dof_count, basis.interior_dof_count
    h_base = nv * mesh.n_vertices
    v_base = h_base + ne * mesh.n_h_edges
    i_base = v_base + ne * mesh.n_v_edges
    total = i_base + ni * mesh.n_elements
    elems = np.arange(mesh.n_elements)
    i, j = mesh.element_index(elems)
    verts = (mesh.vertex_id(i, j), mesh.vertex_id(i + 1, j),
             mesh.vertex_id(i + 1, j + 1), mesh.vertex_id(i, j + 1))
    edges = (h_base + ne * mesh.h_edge_id(i, j), v_base + ne * mesh.v_edge_id(i + 1, j),
             h_base + ne * mesh.h_edge_id(i, j + 1), v_base + ne * mesh.v_edge_id(i, j))
    blocks = [(nv * ids, basis.vertex_dofs(v)) for v, ids in enumerate(verts)]
    blocks += [(first, basis.edge_dofs(e)) for e, first in enumerate(edges)]
    blocks.append((i_base + ni * elems, basis.interior_dofs()))
    l2g = np.empty((mesh.n_elements, basis.dim), dtype=np.int64)
    kind_code = np.empty(total, dtype=np.int8)
    points = np.empty((total, 2))
    for first_dof, local in blocks:
        for slot, n in enumerate(local):
            dof = basis.dofs[n]
            g = first_dof + slot
            l2g[:, n] = g
            kind_code[g] = VERTEX_KINDS.index(dof.kind)
            points[g, 0] = (i + dof.point[0]) / mesh.n
            points[g, 1] = (j + dof.point[1]) / mesh.n
    return total, l2g, kind_code, points


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("k", range(4, 9))
def test_dof_map_matches_per_slot_loop(family, k):
    # the flags come from element indices and slots, not from points, so
    # sizes off the powers of two check them too
    basis = element_basis(family, k)
    for n in (1, 2, 3, 4, 5, 8):
        mesh = RectMesh(n)
        total, l2g, kind_code, points = _loop_dof_map(mesh, basis)
        dm = build_dof_map(mesh, basis)
        assert dm.total == total
        for got, ref in ((dm.local_to_global, l2g), (dm.kind_code, kind_code),
                         (dm.points, points)):
            assert got.dtype == ref.dtype and np.array_equal(got, ref)
        assert np.array_equal(dm.is_boundary, np.zeros(total, dtype=bool))
        flags = clamped_flags(dm).is_boundary
        assert np.array_equal(flags, ((points == 0.0) | (points == 1.0)).any(axis=1))


def test_dof_map_forms_points_and_kinds_on_first_read():
    mesh = RectMesh(3)
    basis = element_basis(Family.BFS_Q, 5)
    fresh = build_dof_map(mesh, basis)
    flagged = clamped_flags(fresh)
    for dm in (fresh, flagged):
        assert "points" not in vars(dm) and "kind_code" not in vars(dm)
    points, kind_code = flagged.points, flagged.kind_code
    assert flagged.points is points and flagged.kind_code is kind_code
    assert "points" not in vars(fresh) and "kind_code" not in vars(fresh)
    _, _, ref_kinds, ref_points = _loop_dof_map(mesh, basis)
    assert np.array_equal(kind_code, ref_kinds) and np.array_equal(points, ref_points)


def test_dof_map_and_flags_form_no_per_dof_points():
    # q-bfs k=8 at n = 32: the (element, slot) float64 buffer alone is
    # 0.66 MB; forming the points traced 1.5 MB above what the calls
    # returned, points and kinds included (0.42 MB without them)
    mesh = RectMesh(32)
    basis = element_basis(Family.BFS_Q, 8)
    tracemalloc.start()
    try:
        dm = clamped_flags(build_dof_map(mesh, basis))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held >= dm.local_to_global.nbytes + dm.is_boundary.nbytes
    assert peak - held <= 0.6e6


def test_dof_map_rejects_a_mesh_or_basis_that_disagrees_with_its_table():
    # a p-enriched k=4 level-3 map given the k=5 basis, or a level-4 mesh,
    # failed inside numpy's matmul in assemble, or with a broadcast error in
    # error_norms
    dm = clamped_flags(build_dof_map(build_mesh(3), element_basis(Family.ENRICHED_P, 4)))
    fields = {name: getattr(dm, name)
              for name in ("total", "local_to_global", "is_boundary", "mesh", "basis")}
    message = "local_to_global of shape " + re.escape(str(dm.local_to_global.shape))
    for name, value in (("basis", element_basis(Family.ENRICHED_P, 5)), ("mesh", build_mesh(4))):
        with pytest.raises(ValueError, match=message):
            DofMap(**{**fields, name: value})
        with pytest.raises(ValueError, match=message):
            replace(dm, **{name: value})
    for changed in ({"is_boundary": dm.is_boundary[:-1]}, {"total": dm.total + 1}):
        with pytest.raises(ValueError, match="boundary flags for"):
            DofMap(**{**fields, **changed})
        with pytest.raises(ValueError, match="boundary flags for"):
            replace(dm, **changed)
