from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse

from c1rect import assembly
from c1rect.assembly import (
    LinearSystem,
    NotConverged,
    NotSPD,
    OutOfDomain,
    evaluate_solution,
    gauss_rule,
    solve,
)
from c1rect.elements import Family, element_basis
from c1rect.mesh import RectMesh, build_dof_map, build_mesh, clamped_flags
from c1rect.poly2d import polyval
from c1rect.study import exact_solution, interpolate
from conftest import PATCH_F, PATCH_U


def test_gauss_rule_single_point():
    rule = gauss_rule(1)
    assert rule.points.shape == (1, 2)
    assert rule.points[0] == pytest.approx([0.5, 0.5])
    assert rule.weights[0] == pytest.approx(1.0)


def test_gauss_rule_two_points():
    # 1-d nodes are the mapped roots of the degree-2 Legendre polynomial
    rule = gauss_rule(2)
    nodes = sorted(set(np.round(rule.points[:, 0], 15)))
    assert nodes[0] == pytest.approx(0.5 - 1.0 / (2.0 * np.sqrt(3.0)), abs=1e-15)
    assert nodes[1] == pytest.approx(0.5 + 1.0 / (2.0 * np.sqrt(3.0)), abs=1e-15)
    val = float(rule.weights @ (rule.points[:, 0] ** 2 * rule.points[:, 1] ** 2))
    assert val == pytest.approx(1.0 / 9.0, rel=1e-15)


@pytest.mark.parametrize("m", [1, 2, 3, 5, 9, 14])
def test_gauss_exactness(m):
    rule = gauss_rule(m)
    assert rule.weights.sum() == pytest.approx(1.0, rel=1e-14)
    assert np.all(rule.weights > 0)
    for a in (0, m, 2 * m - 1):
        for b in (0, 2 * m - 1 - a):
            got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            exact = 1.0 / ((a + 1) * (b + 1))
            assert got == pytest.approx(exact, rel=1e-13)


def test_gauss_rule_bounds():
    with pytest.raises(ValueError):
        gauss_rule(0)
    with pytest.raises(ValueError):
        gauss_rule(33)
    # True == 1 shared the cached rule of 1, with points_per_axis True; 2.5
    # and "3" failed with numpy's or a TypeError's message
    assert gauss_rule(1).points_per_axis == 1
    for m in (True, False, 2.5, 3.0, "3"):
        with pytest.raises(ValueError, match="points per direction must be in 1..32"):
            gauss_rule(m)
    assert gauss_rule(np.int64(3)).points_per_axis == 3


def test_gauss_rule_is_shared_and_read_only():
    rule = gauss_rule(7)
    assert gauss_rule(7) is rule
    for a in (rule.points, rule.weights, rule.nodes):
        with pytest.raises(ValueError):
            a[0] = 0.0


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("k", range(4, 9))
def test_reference_tables_match_long_double_tabulation(family, k):
    # per-axis tabulation against the 3-operand einsum of ``tabulate`` in long
    # double at the rule's points; measured at most 4.3e-13 of max |tab| (q-bfs
    # k=8, (1, 1)), where the einsum in float64 gives 1.0e-12
    eb = element_basis(family, k)
    table = assembly.reference_table(eb)
    for d, tab in table.tab.items():
        ref = eb.tabulate(table.quad.points.astype(np.longdouble), d)
        assert np.max(np.abs(tab - ref)) <= 5e-13 * np.max(np.abs(ref))
    # the long-double Laplacian of the stiffness; measured at most 1.2e-16
    qs = gauss_rule(k + 1)
    for d in ((2, 0), (0, 2)):
        grid = eb.tabulate_grid(qs.nodes.astype(np.longdouble), d)
        ref = eb.tabulate(qs.points.astype(np.longdouble), d)
        assert grid.dtype == np.longdouble
        assert np.max(np.abs(grid - ref)) <= 1e-15 * np.max(np.abs(ref))


@pytest.mark.parametrize("family,k", [(Family.ENRICHED_P, 5), (Family.BFS_Q, 6)])
def test_tensor_grid_load_matches_per_element_points(family, k):
    # reference: each element's corner plus h times the rule's points; with
    # n = 6, h is inexact, so a reordered sum would show
    f = exact_solution().f
    mesh = RectMesh(6)
    rule = assembly.reference_table(element_basis(family, k)).quad
    x0, y0 = mesh.element_corner(np.arange(mesh.n_elements))
    old = f(x0[:, None] + mesh.h * rule.points[:, 0],
            y0[:, None] + mesh.h * rule.points[:, 1])
    assert np.array_equal(assembly.on_quadrature_grid(f, mesh, rule), old)


def test_tensor_grid_broadcasts_constant_data():
    mesh = build_mesh(3)
    vals = assembly.on_quadrature_grid(lambda x, y: 2.0, mesh, gauss_rule(3))
    assert vals.shape == (16, 9) and np.all(vals == 2.0)


def _system(family, k, level, f):
    eb = element_basis(family, k)
    mesh = build_mesh(level)
    dm = clamped_flags(build_dof_map(mesh, eb))
    return mesh, dm, eb, assembly.assemble(dm, f)


def test_zero_source_gives_zero_solution():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 4, 2, lambda x, y: 0.0 * x)
    assert np.all(system.rhs == 0.0)
    result = solve(system, method="cg")
    assert np.all(result.coeffs == 0.0)


def test_fully_clamped_single_element_is_empty():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 4, 1, exact_solution().f)
    assert system.n_free == 0
    result = solve(system)
    assert result.method == "empty"
    assert np.all(result.coeffs == 0.0)


def test_stiffness_symmetry_and_definiteness():
    _, _, _, system = _system(Family.ENRICHED_P, 5, 2, exact_solution().f)
    A = system.matrix.toarray()
    assert np.max(np.abs(A - A.T)) / np.max(np.abs(A)) < 1e-12
    eigvals = np.linalg.eigvalsh(A)
    assert eigvals.min() > 0.0


def _loop_assemble(mesh, dm, eb, f):
    """Per-element loop assembly: the reference for the array pipeline.  The
    reference stiffness A_1 and the scaled element block are formed in long
    double, the CSR from the block rounded; both rules are tabulated per
    axis, as in ``reference_table``."""
    qs = gauss_rule(eb.k + 1)
    ql = gauss_rule(eb.k + 6)
    h = mesh.h
    nodes, weights = qs.nodes.astype(np.longdouble), qs.weights.astype(np.longdouble)
    lap = eb.tabulate_grid(nodes, (2, 0)) + eb.tabulate_grid(nodes, (0, 2))
    ref_stiff = (lap * weights[:, None]).T @ lap
    scale = h ** eb.deriv_orders.astype(float)
    elem_stiff = ref_stiff * np.outer(scale, scale) / h**2
    load_vals = eb.tabulate_grid(ql.nodes, (0, 0))
    free_index = -np.ones(dm.total, dtype=np.int64)
    free_dofs = np.flatnonzero(~dm.is_boundary)
    free_index[free_dofs] = np.arange(len(free_dofs))
    rows, cols, vals = [], [], []
    rhs = np.zeros(len(free_dofs))
    for e in range(mesh.n_elements):
        fslots = free_index[dm.local_to_global[e]]
        ii = np.flatnonzero(fslots >= 0)
        rows.append(np.repeat(fslots[ii], ii.size))
        cols.append(np.tile(fslots[ii], ii.size))
        vals.append(elem_stiff[np.ix_(ii, ii)].astype(float).ravel())
        x0, y0 = mesh.element_corner(e)
        fq = f(x0 + h * ql.points[:, 0], y0 + h * ql.points[:, 1])
        be = scale * h**2 * (load_vals.T @ (ql.weights * fq))
        np.add.at(rhs, fslots[ii], be[ii])
    n = len(free_dofs)
    matrix = scipy.sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    return matrix, rhs, ref_stiff


@pytest.mark.parametrize("family,k", [(Family.ENRICHED_P, 8), (Family.BFS_Q, 6)])
def test_assembly_matches_element_loop(family, k):
    f = exact_solution().f
    mesh, dm, eb, system = _system(family, k, 3, f)
    matrix, rhs, ref_stiff = _loop_assemble(mesh, dm, eb, f)
    # the operator is S A_1 S: A_1 as the loop forms it, S in the CSR below
    assert np.array_equal(system.element_matrix, ref_stiff)
    assert np.array_equal(system.matrix.indptr, matrix.indptr)
    assert np.array_equal(system.matrix.indices, matrix.indices)
    assert np.array_equal(system.matrix.data, matrix.data)
    assert np.max(np.abs(system.rhs - rhs)) <= 1e-14 * np.max(np.abs(rhs))


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
@pytest.mark.parametrize("family,k", [(Family.ENRICHED_P, 8), (Family.BFS_Q, 6)])
def test_matrix_free_product_matches_element_loop(family, k, dtype, rng):
    f = exact_solution().f
    mesh, dm, eb, system = _system(family, k, 3, f)
    matrix, _, _ = _loop_assemble(mesh, dm, eb, f)
    x = rng.standard_normal(system.n_free)
    y = assembly._apply(replace(system, element_matrix=system.element_matrix.astype(dtype)), x)
    assert y.dtype == dtype
    ref = matrix @ x
    assert np.max(np.abs(y - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_direct_solve_builds_no_matrix():
    # CG neither: its products and preconditioner read the element data
    _, _, _, system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)
    for method in ("direct", "cg"):
        solve(system, method=method)
        assert "matrix" not in vars(system)


def _preconditioner(system):
    return assembly._element_block_preconditioner(system, system.element_matrix.astype(float))


def test_assemble_shares_the_reference_stiffness():
    # every level's operator holds the basis's A_1 itself, not a copy
    eb = element_basis(Family.ENRICHED_P, 5)
    for level in (2, 3):
        system = _system(Family.ENRICHED_P, 5, level, exact_solution().f)[3]
        assert system.element_matrix is assembly.reference_table(eb).stiff


# both families at k = 4 and 8 on levels 1-4; p-enriched k=4 level 1 has no
# free slot
SCALED_LEVELS = [(family, k, level) for family in Family for k in (4, 8)
                 for level in range(1, 5) if (family, k, level) != (Family.ENRICHED_P, 4, 1)]


@pytest.mark.parametrize("family,k,level", SCALED_LEVELS)
def test_operator_matches_scaled_element_block(family, k, level, rng):
    # the per-level long-double block h^(o_m + o_n - 2) A_1 of each element,
    # the operator before S A_1 S: where h is a power of two, its residual
    # product, its float64 product and its preconditioner are bit-identical
    mesh, _, eb, system = _system(family, k, level, exact_solution().f)
    scale = mesh.h ** eb.deriv_orders.astype(float)
    block = system.element_matrix * np.outer(scale, scale) / mesh.h**2
    slots, n = system.element_slots, system.n_free
    x = rng.standard_normal(n)
    y = np.zeros(n + 1, dtype=block.dtype)
    np.add.at(y, slots, np.einsum("ei,ij->ej", np.append(x, 0.0).astype(block.dtype)[slots],
                                  block))
    assert np.array_equal(assembly._apply(system, x), y[:-1])
    old = assembly._element_sum([slots], [block.astype(float)], n)
    assert np.array_equal(_product(system)(x), old(x))
    unscaled = replace(system, scale=np.ones(n))
    old = assembly._element_block_preconditioner(unscaled, block.astype(float))
    assert np.array_equal(_preconditioner(system)(x), old(x))


@pytest.mark.parametrize("family,k,n", [
    # level 3: q-bfs k=8 blocks have 81 rows, past _inverse_cholesky's split at 64
    (Family.ENRICHED_P, 8, 4), (Family.BFS_Q, 8, 4),
    # n = 3 and 5 are not powers of two
    *[(Family.BFS_Q, 5, n) for n in (1, 2, 3, 5)]])
def test_preconditioner_sums_element_block_inverses(family, k, n, rng):
    eb, mesh = element_basis(family, k), RectMesh(n)
    system = assembly.assemble(clamped_flags(build_dof_map(mesh, eb)), exact_solution().f)
    A = system.matrix.toarray()
    r = rng.standard_normal(system.n_free)
    ref, cond = np.zeros_like(r), 0.0
    for slots in system.element_slots:
        s = slots[slots >= 0]
        block = A[np.ix_(s, s)]
        ref[s] += np.linalg.solve(block, r[s])
        d = 1.0 / np.sqrt(np.diag(block))
        cond = max(cond, np.linalg.cond(block * d[:, None] * d))
    # the matrix sums some entries in another order than the element data;
    # equilibrated, p-enriched k=8 blocks have condition 1.7e8, so that
    # roundoff moves their inverses by ~1e-10 (q-bfs k=8: 1.6e3, ~1e-14)
    tol = max(1e-12, 1e-15 * cond)
    assert np.max(np.abs(_preconditioner(system)(r) - ref)) <= tol * np.max(np.abs(ref))


@pytest.mark.parametrize("family,k,level", [(Family.ENRICHED_P, 4, 5), (Family.BFS_Q, 8, 4)])
def test_cg_inverts_one_block_per_class(monkeypatch, family, k, level):
    # at most 9 classes: interior, 4 sides and 4 corners
    _, _, _, system = _system(family, k, level, exact_solution().f)
    calls = []
    inverse_factor = assembly._inverse_factor

    def counting(a):
        calls.append(a.shape)
        return inverse_factor(a)

    monkeypatch.setattr(assembly, "_inverse_factor", counting)
    _preconditioner(system)
    assert 0 < len(calls) <= 9


@pytest.mark.parametrize("family,k,level", [(Family.ENRICHED_P, 4, 5), (Family.BFS_Q, 8, 4)])
def test_preconditioner_blocks_equal_whole_grid_probes(monkeypatch, family, k, level):
    # the block of each class's first element, read by whole-grid products
    # with A_1, without the level's scaling, on the unit vectors of its free
    # slots, constrained slots set to the identity
    _, _, _, system = _system(family, k, level, exact_solution().f)
    slots, n = system.element_slots, system.n_free
    product = assembly._element_sum([slots], [system.element_matrix.astype(float)], n)
    side = 2 ** (level - 1)
    blocks = []
    for e in (0, 1, side - 1, side, side + 1, 2 * side - 1,
              side * (side - 1), side * (side - 1) + 1, side * side - 1):
        free = slots[e] >= 0
        block = np.eye(slots.shape[1])
        block[np.ix_(free, free)] = [product(np.eye(1, n, s)[0])[slots[e, free]]
                                     for s in slots[e, free]]
        blocks.append(block.ravel())
    distinct = np.unique(blocks, axis=0).reshape(-1, *block.shape)
    inverted = []
    inverse_factor = assembly._inverse_factor
    monkeypatch.setattr(assembly, "_inverse_factor",
                        lambda a: inverted.append(a) or inverse_factor(a))
    _preconditioner(system)
    assert np.array_equal(inverted, distinct)


def _factor(system):
    """:func:`assembly._multifrontal_cholesky` of the float64 A_1, as ``solve``
    forms it, with a fresh store."""
    return assembly._multifrontal_cholesky(system, system.element_matrix.astype(float),
                                           assembly.FrontStore())


def _direct_solver(system):
    return assembly._direct_solver(system, system.element_matrix.astype(float),
                                   assembly.FrontStore())


def _eliminated(system):
    """Free slots in the order the direct factor eliminates them, smallest
    classes first."""
    factor, *_ = _factor(system)
    # a grid without free slots has no front that eliminates any
    return np.concatenate([np.zeros(0, int)] + [s[:, :f.m].ravel() for f, s in factor])


def _bisection(n):
    """Every box of the n x n element grid's nested dissection, by recursive
    bisection across the longer side, x on a tie: per box, its (x0, y0, w, h),
    its depth and its two halves' boxes."""
    boxes = []

    def bisect(x0, y0, w, h, depth):
        if h > w:
            halves = [(x0, y0, w, h // 2), (x0, y0 + h // 2, w, h - h // 2)]
        elif w > 1:
            halves = [(x0, y0, w // 2, h), (x0 + w // 2, y0, w - w // 2, h)]
        else:
            halves = []
        boxes.append(((x0, y0, w, h), depth, halves))
        for half in halves:
            bisect(*half, depth + 1)

    bisect(0, 0, n, n, 0)
    return boxes


def _class_of(box, n):
    """A box's width, height and the sides of the unit square it touches,
    from its coordinates: 1 left, 2 right, 4 bottom, 8 top."""
    x0, y0, w, h = box
    return w, h, (x0 == 0) + 2 * (x0 + w == n) + 4 * (y0 == 0) + 8 * (y0 + h == n)


def test_dissection_matches_recursive_bisection():
    # the same classes, each with the same boxes, and every box of a class
    # has the halves that _halves gives from its class alone
    for n in range(1, 41):
        origins, halves = {}, {}
        for box, _, parts in _bisection(n):
            key = _class_of(box, n)
            origins.setdefault(key, set()).add(box[1] * n + box[0])
            halves.setdefault(key, []).append(
                [(_class_of(part, n), (part[0] - box[0], part[1] - box[1])) for part in parts])
        dissection = assembly._dissection(n)
        assert sorted(key for key, _ in dissection) == sorted(origins)
        done = set()
        for key, first in dissection:
            assert len(first) == len(origins[key]) and set(first.tolist()) == origins[key]
            assert all(h == assembly._halves(*key) for h in halves[key])
            # each class after its halves
            assert all(half in done for half, _ in assembly._halves(*key))
            done.add(key)


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_nested_dissection_is_a_permutation(family, k):
    # every free slot is eliminated exactly once
    for level in (1, 2, 3, 4):
        _, _, _, system = _system(family, k, level, exact_solution().f)
        assert np.array_equal(np.sort(_eliminated(system)), np.arange(system.n_free))


def test_nested_dissection_of_relabelled_system():
    _, _, _, system = _system(Family.ENRICHED_P, 8, 3, exact_solution().f)
    slot = np.random.default_rng(0).permutation(system.n_free)
    scale = np.empty(system.n_free)
    scale[slot] = system.scale
    relabelled = LinearSystem(
        rhs=system.rhs, free_dofs=system.free_dofs, total=system.total,
        element_slots=np.where(system.element_slots >= 0,
                               slot[system.element_slots], -1),
        element_matrix=system.element_matrix, scale=scale)
    assert np.array_equal(np.sort(_eliminated(relabelled)), np.arange(system.n_free))


@pytest.mark.parametrize("family,k,level", [(Family.ENRICHED_P, 4, 4),
                                            (Family.BFS_Q, 5, 3)])
def test_nested_dissection_top_split_decouples_halves(family, k, level):
    mesh, _, _, system = _system(family, k, level, exact_solution().f)
    # halves of the first cut, x = 1/2, from the elements touching each slot
    slots = system.element_slots
    i = np.repeat(np.arange(mesh.n_elements) % mesh.n, slots.shape[1])
    left = np.ones(system.n_free, dtype=bool)
    right = np.ones(system.n_free, dtype=bool)
    free = slots.ravel() >= 0
    np.logical_and.at(left, slots.ravel()[free], i[free] < mesh.n // 2)
    np.logical_and.at(right, slots.ravel()[free], i[free] >= mesh.n // 2)
    assert 0 < left.sum() == right.sum() < system.n_free
    assert system.matrix[left][:, right].nnz == 0
    # the root class is the one box, the whole grid, with no interface; it
    # eliminates exactly the slots that touch both halves
    factor, *_ = _factor(system)
    root, s = factor[-1]
    assert s.shape == (1, root.m)
    assert np.array_equal(np.sort(s[0]), np.flatnonzero(~left & ~right))


def _count_cholesky(monkeypatch):
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def test_nested_dissection_of_one_element_is_one_cholesky(monkeypatch):
    calls = _count_cholesky(monkeypatch)
    a = np.array([[4.0, 1.0, 0.0, 1.0], [1.0, 5.0, 2.0, 0.0],
                  [0.0, 2.0, 6.0, 1.0], [1.0, 0.0, 1.0, 3.0]])
    system = LinearSystem(rhs=np.ones(4), free_dofs=np.arange(4), total=4,
                          element_slots=np.arange(4)[None, :], element_matrix=a,
                          scale=np.ones(4))
    result = solve(system)
    assert calls == [(4, 4)]
    assert np.max(np.abs(result.coeffs - np.linalg.solve(a, np.ones(4)))) < 1e-15
    assert result.fill == 2 * 10


@pytest.mark.parametrize("k,fill", [(4, 964_756), (5, 2_120_020)])
def test_direct_fill_at_level_6(k, fill):
    # 2 nnz(L), as SuperLU's L plus U counted it for the same order
    _, _, _, system = _system(Family.ENRICHED_P, k, 6, exact_solution().f)
    assert solve(system).fill == fill


@pytest.mark.parametrize("family,k", [(Family.ENRICHED_P, 4), (Family.BFS_Q, 8)])
def test_direct_factors_one_front_per_class(monkeypatch, family, k):
    # level 5: 511 boxes on 9 depths, at most 9 classes on a depth
    _, _, _, system = _system(family, k, 5, exact_solution().f)
    calls = _count_cholesky(monkeypatch)
    made, front = [], assembly._front
    monkeypatch.setattr(assembly, "_front", lambda *a: made.append(front(*a)) or made[-1])
    factor, *_ = _factor(system)
    # one front per class, made in the dissection's order, with its number of boxes
    dissection = assembly._dissection(16)
    assert len(made) == len(dissection)
    classes = [(f, len(first)) for (f, _), (_, first) in zip(made, dissection)]
    assert sum(b for _, b in classes) == 511
    # on the 16 x 16 grid the boxes of depth d have area 256 / 2^d
    depths = Counter(w * h for (w, h, _), _ in dissection)
    assert len(depths) == 9 and max(depths.values()) == 9
    # the factor lists the classes that eliminate DOFs, each with all of its boxes
    assert [(id(f), len(s)) for f, s in factor] == [(id(f), b) for f, b in classes if f.m]
    assert len(calls) <= 9 * len(depths)


def _flat_index_front(slots, block, touching, origin, n, halves):
    """The reference for :func:`assembly._front`: its extend-add goes
    through flat (q, q) index tables and its Schur complement through a
    second buffer."""
    if halves is None:
        local = np.flatnonzero(slots[origin] >= 0)
        ref, occ = np.stack([np.zeros_like(local), np.zeros_like(local), local]), np.ones(len(local))
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
    else:
        (_, s0, _), (_, s1, _) = halves
        r0, r1 = np.split(np.argsort(order)[at], [len(s0)])
        F = np.zeros((len(order), len(order)))
        F.ravel()[(r0[:, None] * len(F) + r0).ravel()] = s0.ravel()
        F.ravel()[(r1[:, None] * len(F) + r1).ravel()] += s1.ravel()
    inv_l = assembly._inverse_factor(F[:m, :m]) if m else np.zeros((0, 0))
    w = inv_l @ F[:m, m:]
    return (assembly._Front(ref=ref[:, order], occ=occ[order], m=m, w=w, inv_l=inv_l),
            F[m:, m:] - w.T @ w if m else F)


@pytest.mark.parametrize("family,k,level", [(Family.ENRICHED_P, 4, 5), (Family.BFS_Q, 8, 4)])
def test_front_matches_flat_index_extend_add(monkeypatch, family, k, level):
    # the broadcast-index extend-add and the in-place Schur complement sum
    # and subtract the same terms in the same order: every front of a
    # factor, and the Schur complement it passes on, is bit-identical
    system = _system(family, k, level, exact_solution().f)[3]
    front, made = assembly._front, []

    def both(*args):
        got, schur = front(*args)
        want, want_schur = _flat_index_front(*args)
        assert got.m == want.m
        for name in ("ref", "occ", "w", "inv_l"):
            assert np.array_equal(getattr(got, name), getattr(want, name))
        assert np.array_equal(schur, want_schur)
        made.append(got.m)
        return got, schur

    monkeypatch.setattr(assembly, "_front", both)
    _factor(system)
    assert len(made) == len(assembly._dissection(2 ** (level - 1)))
    assert 0 < max(made)


@pytest.mark.parametrize("family,k,level,warm", [
    (Family.ENRICHED_P, 4, 5, (1, 2, 3, 4)),
    (Family.ENRICHED_P, 8, 4, (1, 2, 3)),  # a level on the roundoff floor
    (Family.BFS_Q, 8, 4, (1, 2, 3)),
])
def test_warm_front_store_matches_fresh_solve(family, k, level, warm):
    store = assembly.FrontStore(finest=2 ** (level - 1))
    for coarse in warm:
        solve(_system(family, k, coarse, exact_solution().f)[3], store=store)
    system = _system(family, k, level, exact_solution().f)[3]
    reused = solve(system, store=store)
    fresh = solve(system)
    assert reused.fronts < fresh.fronts
    assert np.array_equal(reused.coeffs, fresh.coeffs)
    assert (reused.iterations, reused.residual, reused.fill) == (
        fresh.iterations, fresh.residual, fresh.fill)
    # the finest grid keeps nothing
    assert store.fronts == store.schur == {}


@pytest.mark.parametrize("family,level", [
    # another element block: the store starts afresh
    (Family.BFS_Q, 4),
    # a coarser grid: after level 4 the store holds the fronts of level 3's
    # corner classes but not the Schur complements its new classes read, so
    # it starts a new plan
    (Family.ENRICHED_P, 3),
])
def test_front_store_used_out_of_order_matches_fresh_solve(family, level):
    store = assembly.FrontStore(finest=16)
    solve(_system(Family.ENRICHED_P, 4, 4, exact_solution().f)[3], store=store)
    system = _system(family, 4, level, exact_solution().f)[3]
    reused, fresh = solve(system, store=store), solve(system)
    assert np.array_equal(reused.coeffs, fresh.coeffs)
    assert reused.fronts == fresh.fronts


def _same_solve(reused, fresh):
    assert np.array_equal(reused.coeffs, fresh.coeffs)
    assert (reused.iterations, reused.residual, reused.fill) == (
        fresh.iterations, fresh.residual, fresh.fill)


def _fail_level_4(monkeypatch):
    """A store for p-enriched k=4 up to level 5 after levels 2 and 3, and a
    nonpositive pivot partway through level 4's factor; returns the store."""
    store = assembly.FrontStore(finest=16)
    for level in (2, 3):
        solve(_system(Family.ENRICHED_P, 4, level, exact_solution().f)[3], store=store)
    front, calls = assembly._front, []

    def failing(*args):
        calls.append(args)
        if len(calls) == 9:
            raise NotSPD("injected")
        return front(*args)

    monkeypatch.setattr(assembly, "_front", failing)
    with pytest.raises(NotSPD, match="injected"):
        solve(_system(Family.ENRICHED_P, 4, 4, exact_solution().f)[3], store=store)
    assert len(calls) == 9 < 21  # level 4 factors 21 classes
    monkeypatch.setattr(assembly, "_front", front)
    return store


def test_front_store_after_a_failed_grid_holds_nothing(monkeypatch):
    # neither the plan nor the fronts and Schur complements of levels 2 to 4
    store = _fail_level_4(monkeypatch)
    assert store.plan == []
    assert store.fronts == store.schur == {}


def test_front_store_after_a_failed_grid_matches_fresh_solve(monkeypatch):
    # a nonpositive pivot partway through level 4's factor empties the store;
    # level 5 starts a new plan and matches a fresh solve
    store = _fail_level_4(monkeypatch)
    system = _system(Family.ENRICHED_P, 4, 5, exact_solution().f)[3]
    reused, fresh = solve(system, store=store), solve(system)
    _same_solve(reused, fresh)
    assert reused.fronts == fresh.fronts  # level 5 starts a new plan
    assert store.fronts == store.schur == {}


def test_front_store_skipping_a_level_starts_a_new_plan():
    # grid 2, then grid 8: grid 4 is the plan's next, so grid 8 starts afresh
    store = assembly.FrontStore(finest=8)
    solve(_system(Family.ENRICHED_P, 4, 2, exact_solution().f)[3], store=store)
    system = _system(Family.ENRICHED_P, 4, 4, exact_solution().f)[3]
    reused, fresh = solve(system, store=store), solve(system)
    _same_solve(reused, fresh)
    assert reused.fronts == fresh.fronts
    assert store.fronts == store.schur == {}


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("n", [3, 6])
def test_direct_solve_on_unequal_halves(family, n):
    # n not a power of two: the bisections leave halves of unequal width
    eb = element_basis(family, 4)
    mesh = RectMesh(n)
    dm = clamped_flags(build_dof_map(mesh, eb))
    system = assembly.assemble(dm, exact_solution().f)
    x = solve(system).coeffs[system.free_dofs]
    y = np.linalg.solve(system.matrix.toarray(), system.rhs)
    assert np.max(np.abs(x - y)) <= 1e-10 * np.max(np.abs(y))


REFINED_LEVELS = [(Family.ENRICHED_P, 4, level) for level in range(1, 6)] + [
    (Family.BFS_Q, 8, level) for level in range(1, 5)]


@pytest.mark.parametrize("family,k,level", REFINED_LEVELS)
def test_direct_solve_applies_the_long_double_block_once(monkeypatch, family, k, level):
    system = _system(family, k, level, exact_solution().f)[3]
    calls, apply = [], assembly._apply
    monkeypatch.setattr(assembly, "_apply", lambda *a: calls.append(a) or apply(*a))
    solve(system)
    assert len(calls) == (system.n_free > 0)


@pytest.mark.parametrize("family,k,level", REFINED_LEVELS)
def test_refined_residual_matches_long_double_residual(family, k, level):
    system = _system(family, k, level, exact_solution().f)[3]
    result = solve(system)
    b = system.rhs.astype(system.element_matrix.dtype)
    r = b - assembly._apply(system, result.coeffs[system.free_dofs])
    rel = float(np.linalg.norm(r)) / float(np.linalg.norm(b)) if b.any() else 0.0
    assert result.residual == pytest.approx(rel, rel=1e-3)


def _refine_at_every_step(system, correction):
    """The refinement before the pair x0 + e: it forms the long-double
    residual b - A x again after every step."""
    b = system.rhs.astype(system.element_matrix.dtype)
    x, r, last = np.zeros(system.n_free), b, np.inf
    while True:
        d, _ = correction(r.astype(float))
        step = float(np.max(np.abs(d)))
        if not step <= 0.5 * last:
            return x
        x += d
        r = b - assembly._apply(system, x)
        last = step
        if step <= np.finfo(float).eps * np.max(np.abs(x)):
            return x


@pytest.mark.parametrize("family,k,level", [(Family.ENRICHED_P, 4, 5), (Family.BFS_Q, 8, 4)])
def test_refined_pair_matches_refinement_at_every_step(family, k, level):
    system = _system(family, k, level, exact_solution().f)[3]
    correction, _, _ = _direct_solver(system)
    ref = _refine_at_every_step(system, correction)
    x = solve(system).coeffs[system.free_dofs]
    assert np.max(np.abs(x - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))


@pytest.mark.parametrize("family,k,level,pairs,ulps", [
    (Family.ENRICHED_P, 4, 4, 2, 64), (Family.BFS_Q, 8, 3, 2, 64),
    # the reference stalls here: its steps after the second are 6.2e-11 of
    # max |x|, the long-double residual's own noise, so 64 ulps cannot be
    # resolved; the pair's third step is 6.1e-14 and its next ones 78 and 80
    # ulps, the noise of the float64 product A e; 450000 ulps is 1e-10
    (Family.ENRICHED_P, 8, 4, 3, 450_000)])
def test_refinement_stops_on_predicted_correction(family, k, level, pairs, ulps):
    # the second step is 1e-10 to 2.5e-7 of the first, so the steps still to
    # come are predicted below an ulp; each case took 3 to 5 pairs on step size
    system = _system(family, k, level, exact_solution().f)[3]
    result = solve(system)
    assert result.iterations == pairs
    correction, _, _ = _direct_solver(system)
    ref = _refine_at_every_step(system, correction)
    x = result.coeffs[system.free_dofs]
    assert np.max(np.abs(x - ref)) <= ulps * np.finfo(float).eps * np.max(np.abs(ref))


@pytest.mark.parametrize("method", assembly.SOLVER_METHODS)
def test_zero_right_hand_side_ends_refinement_after_one_step(method):
    # a zero step ends the loop before any ratio of steps is formed
    system = _system(Family.ENRICHED_P, 4, 3, lambda x, y: 0.0 * x)[3]
    result = solve(system, method=method)
    assert np.all(result.coeffs == 0.0)
    assert (result.iterations, result.residual) == ((method == "direct") * 1, 0.0)


def _product(system):
    """The float64 operator that ``solve`` hands to CG and the refinement."""
    return assembly._scaled(system.scale, assembly._element_sum(
        [system.element_slots], [system.element_matrix.astype(float)], system.n_free))


def test_refine_returns_zero_after_non_finite_first_correction():
    system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)[3]
    x, count, rel = assembly._refine(system, lambda r: (np.full_like(r, np.nan), 7),
                                     _product(system))
    assert np.array_equal(x, np.zeros(system.n_free))
    assert (count, rel) == (7, 1.0)


def test_refine_re_anchors_while_the_correction_is_large(monkeypatch):
    # a correction that solves only 0.6 of each residual: e grows past
    # 2^-11 max |x0| on every early step, so r0 is formed again each time
    system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)[3]
    correction, _, _ = _direct_solver(system)
    calls, apply = [], assembly._apply
    monkeypatch.setattr(assembly, "_apply", lambda *a: calls.append(a) or apply(*a))
    x, count, rel = assembly._refine(system, lambda r: (0.6 * correction(r)[0], 1),
                                     _product(system))
    assert 5 < len(calls) < count
    ref = solve(system).coeffs[system.free_dofs]
    assert np.max(np.abs(x - ref)) <= 64 * np.finfo(float).eps * np.max(np.abs(ref))
    assert rel < 1e-13


@pytest.mark.parametrize("n,fronts", [(5, 29), (6, 38), (12, 57)])
def test_recurring_class_is_factored_once(monkeypatch, n, fronts):
    # n not a power of two: some classes recur at two depths
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = RectMesh(n)
    system = assembly.assemble(clamped_flags(build_dof_map(mesh, eb)), exact_solution().f)
    calls, front = [], assembly._front
    monkeypatch.setattr(assembly, "_front", lambda *a: calls.append(a) or front(*a))
    result = solve(system)
    assert result.fronts == len(calls) == fronts == len(assembly._dissection(n))
    assert len({(depth, _class_of(box, n)) for box, depth, _ in _bisection(n)}) > fronts
    # the coefficients of a dense LU refined on the same residual
    a = system.matrix.toarray()
    y = _refine_at_every_step(system, lambda r: (np.linalg.solve(a, r), 1))
    x = result.coeffs[system.free_dofs]
    assert np.max(np.abs(x - y)) <= 64 * np.finfo(float).eps * np.max(np.abs(y))


def test_evaluate_solution_caches_nothing(rng):
    eb = element_basis(Family.ENRICHED_P, 5)
    mesh = build_mesh(3)
    dm = build_dof_map(mesh, eb)
    coeffs = rng.standard_normal(dm.total)
    assembly.reference_table(eb)
    # the whole cache_info: with one entry, a table built for another basis
    # would leave currsize at 1 but count a miss
    state = (assembly.reference_table.cache_info(), sorted(vars(eb)))
    for x, y in rng.uniform(0, 1, size=(100, 2)):
        evaluate_solution(dm, coeffs, x, y, deriv=(1, 1))
    assert (assembly.reference_table.cache_info(), sorted(vars(eb))) == state


@pytest.mark.parametrize("family,k", [(Family.BFS_Q, 4), (Family.ENRICHED_P, 8)])
def test_polynomial_patch_test(family, k, rng):
    mesh, dm, eb, system = _system(family, k, 2, lambda X, Y: polyval(PATCH_F, X, Y))
    result = solve(system, method="direct")
    for _ in range(40):
        x, y = rng.uniform(0, 1, size=2)
        got = evaluate_solution(dm, result.coeffs, x, y)
        assert got == pytest.approx(float(polyval(PATCH_U, x, y)), abs=1e-9)


def test_single_unknown_system():
    system = LinearSystem(rhs=np.array([2.0]), free_dofs=np.array([0]), total=1,
                          element_slots=np.array([[0]]), element_matrix=np.array([[4.0]]),
                          scale=np.ones(1))
    result = solve(system, method="cg")
    assert result.coeffs[0] == pytest.approx(0.5, rel=1e-13)


def test_energy_identity():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)
    result = solve(system, rel_tol=1e-13, method="cg")
    x = result.coeffs[system.free_dofs]
    energy = float(x @ (system.matrix @ x))
    work = float(x @ system.rhs)
    assert energy == pytest.approx(work, rel=1e-10)


def test_cg_matches_direct():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)
    cg = solve(system, rel_tol=1e-13, method="cg")
    direct = solve(system, method="direct")
    scale = np.max(np.abs(direct.coeffs))
    assert np.max(np.abs(cg.coeffs - direct.coeffs)) / scale < 1e-8


def test_direct_solution_independent_of_ordering():
    # the factorization's rounding moved this solution by 5e-8..9e-8 under a
    # permutation; refinement on a long-double residual leaves only the
    # floor of that residual (~2e-11 here, cond ~4e9)
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 8, 3, exact_solution().f)
    n = system.n_free
    perm = np.random.default_rng(0).permutation(n)
    slot = np.empty(n, dtype=np.int64)
    slot[perm] = np.arange(n)
    permuted = LinearSystem(
        rhs=system.rhs[perm], free_dofs=system.free_dofs[perm], total=system.total,
        element_slots=np.where(system.element_slots >= 0,
                               slot[system.element_slots], -1),
        element_matrix=system.element_matrix, scale=system.scale[perm])
    a = solve(system, method="direct").coeffs
    b = solve(permuted, method="direct").coeffs
    assert np.max(np.abs(a - b)) <= 1e-10 * np.max(np.abs(a))


def test_cg_converges_on_degree8_level4():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 8, 4, exact_solution().f)
    # Jacobi-preconditioned CG hit the 50 * dim cap here (residual 9e-2)
    cg = solve(system, rel_tol=1e-13, method="cg")
    assert cg.iterations <= 50 * system.n_free // 10


def test_not_converged_reports_iterations():
    mesh, dm, eb, system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)
    with pytest.raises(NotConverged) as err:
        solve(system, rel_tol=0.0, method="cg")
    assert 0 < err.value.iterations <= 50 * system.n_free
    assert err.value.residual >= 0.0


@pytest.mark.parametrize("matrix", [
    [[1.0, 2.0], [2.0, 1.0]],  # positive diagonal, eigenvalues -1 and 3
    [[1.0, 0.0], [0.0, 0.0]],  # zero diagonal entry
    # indefinite; an LU that swaps rows at the exactly zero pivot then
    # meets only positive pivots
    [[1.0, 1.0, -1.0, 1.0], [1.0, 2.0, 0.0, 0.0],
     [-1.0, 0.0, 2.0, -1.0], [1.0, 0.0, -1.0, 2.0]],
])
def test_direct_rejects_indefinite_system(matrix):
    # CG too: its preconditioner factors the one element block
    n = len(matrix)
    system = LinearSystem(rhs=np.ones(n), free_dofs=np.arange(n), total=n,
                          element_slots=np.arange(n)[None, :],
                          element_matrix=np.array(matrix), scale=np.ones(n))
    for method in ("direct", "cg"):
        with pytest.raises(NotSPD):
            solve(system, method=method)


def _out_of_place_inverse_cholesky(a):
    # the recursion that built L^-1 in a new zeroed array, kept as reference
    m = len(a)
    if m <= 64:
        return np.linalg.inv(np.linalg.cholesky(a))
    h = m // 2
    top = _out_of_place_inverse_cholesky(a[:h, :h])
    w = top @ a[:h, h:]
    bottom = _out_of_place_inverse_cholesky(a[h:, h:] - w.T @ w)
    out = np.zeros_like(a)
    out[:h, :h], out[h:, h:], out[h:, :h] = top, bottom, -bottom @ (w.T @ top)
    return out


@pytest.mark.parametrize("m", [36, 64, 65, 108, 220])
def test_inverse_factor_in_place_matches_out_of_place(rng, m):
    # random SPD blocks on both sides of the split at 64 rows and past two
    # splits; the argument is left as it is and the result owns its memory
    b = rng.standard_normal((m, m))
    a = b @ b.T + np.diag(rng.uniform(0.1, 3.0, m))
    before = a.copy()
    d = 1.0 / np.sqrt(np.diagonal(before))
    old = _out_of_place_inverse_cholesky(before * d[:, None] * d) * d
    new = assembly._inverse_factor(a)
    assert np.array_equal(a, before)
    assert np.array_equal(new, old) and new.base is None


def test_cg_rejects_indefinite_block_past_64_rows():
    # I + c (J - I) of 70 rows: positive diagonal, its leading 35 rows
    # positive definite (1 + 34 c > 0), the whole indefinite (1 + 69 c < 0),
    # so the Schur complement of _inverse_cholesky's halves fails
    n, c = 70, -0.02
    matrix = (1.0 - c) * np.eye(n) + c
    system = LinearSystem(rhs=np.ones(n), free_dofs=np.arange(n), total=n,
                          element_slots=np.arange(n)[None, :], element_matrix=matrix,
                          scale=np.ones(n))
    with pytest.raises(NotSPD):
        solve(system, method="cg")


def test_direct_rejects_indefinite_element_block():
    # A_1 minus half its diagonal is indefinite; p-enriched k=4
    # eliminates nothing in single elements, so a larger box's front fails
    _, _, _, system = _system(Family.ENRICHED_P, 4, 3, exact_solution().f)
    block = system.element_matrix - 0.5 * np.diag(np.diag(system.element_matrix))
    with pytest.raises(NotSPD):
        solve(replace(system, element_matrix=block))


def test_evaluate_solution_reproduces_linear(rng):
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    exact = exact_solution()

    class Linear:
        u = staticmethod(lambda x, y: x + y)
        ux = staticmethod(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        uy = staticmethod(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        uxy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))

    coeffs = interpolate(Linear, dm)
    for _ in range(10):
        x, y = rng.uniform(0, 1, size=2)
        assert evaluate_solution(dm, coeffs, x, y) == pytest.approx(
            x + y, abs=1e-11)


def test_evaluate_solution_derivative(rng):
    eb = element_basis(Family.BFS_Q, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)

    class Quad:
        u = staticmethod(lambda x, y: np.asarray(x, dtype=float) ** 2)
        ux = staticmethod(lambda x, y: 2.0 * np.asarray(x, dtype=float))
        uy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        uxy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))

    coeffs = interpolate(Quad, dm)
    for _ in range(10):
        x, y = rng.uniform(0, 1, size=2)
        got = evaluate_solution(dm, coeffs, x, y, deriv=(1, 0))
        assert got == pytest.approx(2 * x, abs=1e-10)


@pytest.mark.parametrize("element", [-1, 4, 7, True, 2.0, np.float64(1.0), "1"])
def test_evaluate_solution_rejects_unknown_element(element):
    # a 2x2 mesh has elements 0..3; -1 used to evaluate element 3's
    # polynomial outside its square, True was read as a boolean mask and
    # 2.0 as an index, both raising IndexError
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    with pytest.raises(ValueError, match="outside 0..3"):
        evaluate_solution(dm, np.ones(dm.total), 0.25, 0.25, element=element)


@pytest.mark.parametrize("deriv", [(1.5, 0), (0, 3), (-1, 0), (True, 0), (0, 2.0)])
def test_evaluate_solution_rejects_non_integer_derivative(deriv):
    # (1.5, 0) raised TypeError and (-1, 0) got past the check
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    with pytest.raises(ValueError, match="derivative orders above 2 are not tabulated"):
        evaluate_solution(dm, np.ones(dm.total), 0.25, 0.25, deriv=deriv)


def test_evaluate_solution_accepts_numpy_integers(rng):
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    coeffs = rng.standard_normal(dm.total)
    args = (dm, coeffs, 0.5, 0.25)
    assert (evaluate_solution(*args, deriv=(np.int64(1), np.int8(1)), element=np.int64(0))
            == evaluate_solution(*args, deriv=(1, 1), element=0))


@pytest.mark.parametrize("extra", [-1, 1])
def test_evaluation_rejects_coefficients_of_wrong_length(extra):
    # a short vector raised a bare IndexError; a long one was cut silently
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    coeffs = np.ones(dm.total + extra)
    message = f"{dm.total + extra} coefficients for {dm.total} global DOFs"
    with pytest.raises(ValueError, match=message):
        assembly.evaluate_on_elements(dm, coeffs, None)
    with pytest.raises(ValueError, match=message):
        evaluate_solution(dm, coeffs, 0.25, 0.25)


def test_evaluate_solution_out_of_domain():
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(1)
    dm = build_dof_map(mesh, eb)
    with pytest.raises(OutOfDomain):
        evaluate_solution(dm, np.zeros(dm.total), 1.5, 0.5)
    # an explicit element skipped the check: (5, 5) on element 0 of a q-bfs
    # k=4 n=2 mesh extrapolated to -2.24e10, and x = nan returned nan
    eb = element_basis(Family.BFS_Q, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    coeffs = np.random.default_rng(0).standard_normal(dm.total)
    for x, y in ((5.0, 5.0), (np.nan, 0.5), (0.5, np.inf), (-1e-300, 0.5), (0.5, 1.0 + 1e-15)):
        for element in (None, 0):
            with pytest.raises(OutOfDomain):
                evaluate_solution(dm, coeffs, x, y, element=element)
    # the closed square's corners are inside, with or without an element
    assert evaluate_solution(dm, coeffs, 1.0, 1.0, element=3) == \
        evaluate_solution(dm, coeffs, 1.0, 1.0)


def test_value_continuity_across_interior_edge(rng):
    # conforming coefficients evaluate identically from both edge neighbours
    eb = element_basis(Family.ENRICHED_P, 6)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    coeffs = rng.standard_normal(dm.total)
    lo, hi = mesh.element_id(0, 0), mesh.element_id(0, 1)
    i, j = mesh.element_index(hi)
    for t in rng.uniform(0.05, 0.95, size=8):
        x, y = (i + t) * mesh.h, j * mesh.h
        a = evaluate_solution(dm, coeffs, x, y, element=lo)
        b = evaluate_solution(dm, coeffs, x, y, element=hi)
        assert abs(a - b) < 1e-9 * max(1.0, abs(a))
