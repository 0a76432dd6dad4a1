import copy
import gc
import inspect
import math
import tracemalloc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from c1rect import assembly
from c1rect import elements
from c1rect import study
from c1rect.elements import ElementBasis, Family, element_basis
from c1rect.mesh import MAX_LEVEL, RectMesh, build_dof_map, build_mesh, clamped_flags
from c1rect.poly2d import _differentiate, monomials, polyval
from c1rect.study import (
    StudyConfig,
    run_study,
    c1_jump,
    error_norms,
    exact_solution,
    expected_dim,
    format_table,
    interpolate,
    parse_csv,
    report_csv,
    report_json,
    verify,
)
from conftest import cached_study


def test_solution_peak():
    exact = exact_solution()
    assert exact.u(0.5, 0.5) == pytest.approx(1.0, abs=1e-15)


def test_clamped_boundary_values():
    exact = exact_solution()
    ts = np.linspace(0.0, 1.0, 50)
    for x, y in [(ts, 0 * ts), (ts, 0 * ts + 1), (0 * ts, ts), (0 * ts + 1, ts)]:
        assert np.max(np.abs(exact.u(x, y))) < 1e-14
        assert np.max(np.abs(exact.ux(x, y))) < 1e-13
        assert np.max(np.abs(exact.uy(x, y))) < 1e-13


def test_source_against_symbolic_oracle():
    sympy = pytest.importorskip("sympy")
    x, y = sympy.symbols("x y")
    u = sympy.sin(sympy.pi * x) ** 2 * sympy.sin(sympy.pi * y) ** 2
    lap = sympy.diff(u, x, 2) + sympy.diff(u, y, 2)
    bilap = sympy.simplify(sympy.diff(lap, x, 2) + sympy.diff(lap, y, 2))
    f_sym = sympy.lambdify((x, y), bilap, "numpy")
    exact = exact_solution()
    assert exact.f(0.5, 0.5) == pytest.approx(24 * np.pi**4, rel=1e-13)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 1, size=(30, 2))
    got = exact.f(pts[:, 0], pts[:, 1])
    want = f_sym(pts[:, 0], pts[:, 1])
    assert np.allclose(got, want, rtol=1e-12, atol=1e-9)


def test_source_against_finite_differences():
    # 4th-order biharmonic stencil cross-check of the closed form
    exact = exact_solution()
    h = 1e-2
    for x0, y0 in [(0.31, 0.47), (0.62, 0.21)]:
        u = lambda dx, dy: exact.u(x0 + dx * h, y0 + dy * h)
        uxxxx = (u(-2, 0) - 4 * u(-1, 0) + 6 * u(0, 0) - 4 * u(1, 0) + u(2, 0)) / h**4
        uyyyy = (u(0, -2) - 4 * u(0, -1) + 6 * u(0, 0) - 4 * u(0, 1) + u(0, 2)) / h**4
        uxxyy = ((u(1, 1) + u(-1, 1) + u(1, -1) + u(-1, -1))
                 - 2 * (u(1, 0) + u(-1, 0) + u(0, 1) + u(0, -1)) + 4 * u(0, 0)) / h**4
        approx = uxxxx + 2 * uxxyy + uyyyy
        assert exact.f(x0, y0) == pytest.approx(approx, rel=5e-3)


def test_derivative_fields_consistent():
    exact = exact_solution()
    step = 1e-6
    rng = np.random.default_rng(11)
    for _ in range(10):
        x, y = rng.uniform(0.1, 0.9, size=2)
        fd_ux = (exact.u(x + step, y) - exact.u(x - step, y)) / (2 * step)
        assert exact.ux(x, y) == pytest.approx(fd_ux, rel=1e-8, abs=1e-8)
        fd_uxx = (exact.ux(x + step, y) - exact.ux(x - step, y)) / (2 * step)
        assert exact.uxx(x, y) == pytest.approx(fd_uxx, rel=1e-8, abs=1e-8)
        fd_uxy = (exact.ux(x, y + step) - exact.ux(x, y - step)) / (2 * step)
        assert exact.uxy(x, y) == pytest.approx(fd_uxy, rel=1e-8, abs=1e-8)


def test_error_norms_of_zero_solution():
    # ||u||_0 = 3/8 from int sin^4 = 3/8 per direction; |u|_2 = sqrt(2) pi^2
    # from int u_xx^2 = int u_yy^2 = 3 pi^4 / 4 and int u_xy^2 = pi^4 / 4
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    l2, h2 = error_norms(dm, np.zeros(dm.total), exact)
    assert l2 == pytest.approx(0.375, rel=1e-10)
    assert h2 == pytest.approx(math.sqrt(2.0) * math.pi**2, rel=1e-10)


def test_error_norms_equal_four_grid_formula(rng):
    # one error grid at a time sums the same terms in the same order as the
    # four grids at once; n = 24 makes h inexact and the grids 0.5 MB each
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 5)
    mesh = RectMesh(24)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = interpolate(exact, dm) + 1e-3 * rng.standard_normal(dm.total)
    q = assembly.reference_table(eb).quad
    e00, e20, e11, e02 = (
        assembly.on_quadrature_grid(fn, mesh, q)
        - assembly.evaluate_on_elements(dm, coeffs, None, d)
        for fn, d in ((exact.u, (0, 0)), (exact.uxx, (2, 0)), (exact.uxy, (1, 1)),
                      (exact.uyy, (0, 2))))
    l2 = mesh.h**2 * float(np.sum((e00 * e00) @ q.weights))
    h2 = mesh.h**2 * float(np.sum((e20 * e20 + 2.0 * e11 * e11 + e02 * e02) @ q.weights))
    assert error_norms(dm, coeffs, exact) == (math.sqrt(l2), math.sqrt(h2))


@pytest.mark.parametrize("family,k,n", [
    (Family.ENRICHED_P, 5, 24), (Family.ENRICHED_P, 5, 40),
    (Family.ENRICHED_P, 4, 48), (Family.BFS_Q, 8, 20)])
def test_error_norms_by_blocks_equal_four_grid_formula(rng, family, k, n):
    # the blocks write each element's integrals in place and sum them once,
    # in the order of the whole-grid formula
    exact = exact_solution()
    eb = element_basis(family, k)
    mesh = RectMesh(n)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = interpolate(exact, dm) + 1e-3 * rng.standard_normal(dm.total)
    q = assembly.reference_table(eb).quad
    assert 3 <= len(assembly.element_row_blocks(mesh, len(q.weights))) <= 8
    e00, e20, e11, e02 = (
        assembly.on_quadrature_grid(fn, mesh, q)
        - assembly.evaluate_on_elements(dm, coeffs, None, d)
        for fn, d in ((exact.u, (0, 0)), (exact.uxx, (2, 0)), (exact.uxy, (1, 1)),
                      (exact.uyy, (0, 2))))
    l2 = mesh.h**2 * float(np.sum((e00 * e00) @ q.weights))
    h2 = mesh.h**2 * float(np.sum((e20 * e20 + 2.0 * e11 * e11 + e02 * e02) @ q.weights))
    assert error_norms(dm, coeffs, exact) == (math.sqrt(l2), math.sqrt(h2))


def test_load_and_error_norms_hold_no_whole_grid():
    # p-enriched k=4 at n = 64: one grid of the load rule is 3.3 MB; by
    # blocks both calls trace about 1.1 MB above their inputs and what they
    # return, where whole grids traced 7.1 (assemble) and 9.9 MB
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = RectMesh(64)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = interpolate(exact, dm)
    q = assembly.reference_table(eb).quad
    assert mesh.n_elements * len(q.weights) * 8 > 3.2e6
    for call in (lambda: error_norms(dm, coeffs, exact),
                 lambda: assembly.assemble(dm, exact.f)):
        tracemalloc.start()
        try:
            result = call()
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result is not None and peak - held <= 1.5e6


def test_interpolation_reproduces_total_degree_space(rng):
    # a global polynomial of total degree k interpolates exactly
    k = 5
    eb = element_basis(Family.ENRICHED_P, k)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    monos = monomials((i, d - i) for d in range(k + 1) for i in range(d, -1, -1))
    p = np.tensordot(rng.uniform(-1, 1, size=len(monos)), monos, 1)

    class PolyExact:
        u = staticmethod(lambda x, y: polyval(p, x, y))
        ux = staticmethod(lambda x, y: polyval(_differentiate(p, 1, 0), x, y))
        uy = staticmethod(lambda x, y: polyval(_differentiate(p, 0, 1), x, y))
        uxy = staticmethod(lambda x, y: polyval(_differentiate(p, 1, 1), x, y))

    vec = interpolate(PolyExact, dm)
    for _ in range(25):
        x, y = rng.uniform(0, 1, size=2)
        got = assembly.evaluate_solution(dm, vec, x, y)
        assert got == pytest.approx(float(polyval(p, x, y)), abs=1e-9)


def test_interpolating_constant_sets_value_dofs():
    eb = element_basis(Family.BFS_Q, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)

    class One:
        u = staticmethod(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        ux = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        uy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        uxy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))

    vec = interpolate(One, dm)
    assert np.allclose(vec[dm.kind_code == 0], 1.0)
    assert np.allclose(vec[dm.kind_code != 0], 0.0)


def test_interpolant_of_exact_solution_respects_clamping():
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(3)
    dm = clamped_flags(build_dof_map(mesh, eb))
    vec = interpolate(exact, dm)
    assert np.max(np.abs(vec[dm.is_boundary])) < 1e-12


def test_interpolation_error_small_at_high_degree():
    # monotonicity sanity bound on the degree-8 nodal interpolant; its
    # equispaced-lattice Lebesgue growth keeps the absolute size near 1e-4
    # on level 3 (order ~2^9 above its level-4 value)
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 8)
    errs = []
    for level in (2, 3):
        mesh = build_mesh(level)
        dm = build_dof_map(mesh, eb)
        vec = interpolate(exact, dm)
        l2, _ = error_norms(dm, vec, exact)
        errs.append(l2)
    assert errs[1] < 1e-3
    assert errs[1] < errs[0] / 100.0


def test_run_study_dim_columns():
    rep = cached_study(Family.ENRICHED_P, 4, 4)
    assert [r.dim for r in rep.rows] == [20, 48, 140, 468]
    rep = cached_study(Family.BFS_Q, 5, 4)
    assert [r.dim for r in rep.rows] == [36, 100, 324, 1156]


def test_order_formula_is_definitional():
    rep = cached_study(Family.ENRICHED_P, 4, 4)
    assert rep.rows[0].l2_order == 0.0 and rep.rows[0].h2_order == 0.0
    for prev, cur in zip(rep.rows, rep.rows[1:]):
        assert cur.l2_order == pytest.approx(math.log2(prev.l2_err / cur.l2_err))
        assert cur.h2_order == pytest.approx(math.log2(prev.h2_err / cur.h2_err))


def test_monotone_decrease_from_level2():
    for family, k in ((Family.ENRICHED_P, 4), (Family.BFS_Q, 5)):
        rep = cached_study(family, k, 4)
        for prev, cur in zip(rep.rows[1:], rep.rows[2:]):
            assert cur.l2_err < prev.l2_err
            assert cur.h2_err < prev.h2_err


def test_meta_records_solver_and_quadrature():
    rep = cached_study(Family.ENRICHED_P, 4, 4)
    assert rep.meta["quad_stiffness_points"] == 5
    assert rep.meta["quad_load_points"] == 10
    assert len(rep.meta["levels"]) == 4
    assert all("iterations" in row for row in rep.meta["levels"])
    # level 1 has no free DOFs
    assert [row["method"] for row in rep.meta["levels"]] == ["empty"] + 3 * ["direct"]
    assert rep.meta["levels"][0]["fill"] == 0
    basis = element_basis(Family.ENRICHED_P, 4)
    for level, row in enumerate(rep.meta["levels"][1:], start=2):
        mesh = build_mesh(level)
        dm = clamped_flags(build_dof_map(mesh, basis))
        system = assembly.assemble(dm, exact_solution().f)
        assert row["fill"] >= system.matrix.nnz > 0
    for row in rep.meta["levels"]:
        for stage in ("dof_map_s", "assemble_s", "solve_s", "errors_s"):
            assert row[stage] >= 0.0


@pytest.mark.parametrize("family,k,levels,fronts", [
    (Family.ENRICHED_P, 4, 6, [0, 7, 18, 21, 21, 21]),
    (Family.BFS_Q, 8, 4, [1, 7, 18, 21]),
])
def test_study_factors_each_class_once(monkeypatch, family, k, levels, fronts):
    made, kept, held, stores = [], [], [], []
    # at each _front call, as the previous call left the store, and after
    # each solve: the level, the Schur complements held and those read
    events, store = [], []
    front, solve = assembly._front, assembly.solve

    def snapshot(halves):
        events.append((len(kept), list(store[0].schur.values()),
                       [s for _, s, _ in halves or ()]))

    def counting(*args):
        made.append(args)
        snapshot(args[-1])
        return front(*args)

    def keeping(system, **kwargs):
        store.append(kwargs["store"])
        result = solve(system, **kwargs)
        snapshot(None)
        store.clear()
        kept.append(len(kwargs["store"].schur))
        held.append(len(kwargs["store"].fronts))
        stores.append(weakref.ref(kwargs["store"]))
        return result

    monkeypatch.setattr(assembly, "_front", counting)
    monkeypatch.setattr(assembly, "solve", keeping)
    rep = run_study(StudyConfig(family=family, k=k, max_level=levels))
    assert [row["fronts"] for row in rep.meta["levels"]] == fronts
    assert len(made) == sum(fronts)
    # Schur complements kept for the next level's new classes: the four
    # (n/2)^2 corner boxes, two n/4 x n/2 and three (n/4)^2 boxes
    assert max(kept[:-1]) == 9 and kept[-1] == 0
    # each level keeps exactly the fronts that the next one reuses
    for level in range(1, levels):
        classes = assembly._dissection(2 ** level)
        assert held[level - 1] + fronts[level] == len(classes)
    assert held[-1] == 0
    # each Schur complement held is read later on its level or by the next
    # level's new classes: at most 11 at once, not all of a level's 29
    for at, (level, schur, _) in enumerate(events):
        later = [r for lv, _, reads in events[at:] if lv <= level + 1 for r in reads]
        assert all(any(s is r for r in later) for s in schur)
    assert max(len(schur) for _, schur, _ in events) <= 11
    gc.collect()
    assert len(stores) == levels and all(ref() is None for ref in stores)


def test_direct_solve_above_dense_size():
    # 23 940 free DOFs: a dense factor would hold 4.6 GB
    rep = cached_study(Family.ENRICHED_P, 4, 7)
    finest = rep.meta["levels"][-1]
    assert finest["method"] == "direct"
    assert finest["free_dofs"] == 23940
    assert finest["residual"] <= 1e-9
    # nested dissection of the element grid: 5.32M; SuperLU's MMD_AT_PLUS_A
    # on the same matrix: 9.40M
    assert finest["fill"] < 7.0e6
    assert rep.rows[-2].l2_err == pytest.approx(7.515e-9, rel=1e-3)
    assert rep.rows[-1].l2_err < rep.rows[-2].l2_err


def test_csv_round_trip():
    rep = cached_study(Family.ENRICHED_P, 4, 4)
    text = report_csv(rep)
    assert text.splitlines()[0] == "level,n,dim,l2_err,l2_order,h2_err,h2_order"
    rows = parse_csv(text)
    assert rows == rep.rows


def test_json_report_fields():
    import json

    rep = cached_study(Family.ENRICHED_P, 4, 4)
    payload = json.loads(report_json(rep))
    assert payload["config"]["family"] == "p-enriched"
    assert {"level", "n", "dim", "l2_err", "l2_order", "h2_err", "h2_order"} <= set(
        payload["rows"][0])
    assert "levels" in payload["meta"]


def test_json_report_round_trips_numpy_integer_config():
    # numpy integers pass the input checks; json.dumps raised a TypeError on
    # the np.int64 fields until the config stored them as ints
    import json

    config = StudyConfig(family="p-enriched", k=np.int64(4), max_level=np.int64(2))
    payload = json.loads(report_json(run_study(config)))
    assert StudyConfig(**payload["config"]) == config
    assert type(config.k) is type(config.max_level) is int


def test_format_table_shape():
    rep = cached_study(Family.ENRICHED_P, 4, 4)
    lines = format_table(rep).splitlines()
    assert len(lines) == 2 + len(rep.rows)
    assert lines[-1].split()[-1] == "468"


def test_config_validation():
    with pytest.raises(ValueError):
        StudyConfig(family=Family.ENRICHED_P, k=3, max_level=2)
    with pytest.raises(ValueError):
        StudyConfig(family=Family.ENRICHED_P, k=4, max_level=0)
    # rejected before any level is solved, not when build_mesh reaches it
    with pytest.raises(ValueError, match=f"refinement level must be in 1..{MAX_LEVEL}, got"):
        StudyConfig(family=Family.ENRICHED_P, k=4, max_level=MAX_LEVEL + 1)


@pytest.mark.parametrize("k,level,message", [
    (9, 2, "degree must be between 4 and 8"),
    (4.5, 2, "degree must be between 4 and 8"),
    (4.0, 2, "degree must be between 4 and 8"),
    (4, 2.5, "refinement level must be in 1..16, got 2.5"),
    # a bool is an int to Python, and the JSON report read "max_level": true
    (True, 2, "degree must be between 4 and 8"),
    (4, True, "refinement level must be in 1..16, got True"),
    # out of range: rejected before any work too, not by build_mesh
    (4, 0, "refinement level must be in 1..16, got 0"),
    (4, MAX_LEVEL + 1, "refinement level must be in 1..16, got 17"),
])
def test_study_and_verify_share_input_checks(monkeypatch, k, level, message):
    # a ValueError before any work, not a FAIL row or a TypeError
    def no_work(*args):
        raise AssertionError("element built before the input checks")

    monkeypatch.setattr(study, "element_basis", no_work)
    with pytest.raises(ValueError, match=message):
        StudyConfig(family=Family.ENRICHED_P, k=k, max_level=level)
    with pytest.raises(ValueError, match=message):
        verify(Family.ENRICHED_P, k, level)


@pytest.mark.parametrize("solver", ["lu", "Direct", "", "auto"])
def test_config_rejects_unknown_solver(solver):
    with pytest.raises(ValueError, match="unknown solver"):
        StudyConfig(family=Family.ENRICHED_P, k=4, max_level=2, solver=solver)


@pytest.mark.parametrize("rel_tol", [-1.0, 0.0, math.nan, math.inf])
def test_config_rejects_bad_tolerance(rel_tol):
    with pytest.raises(ValueError, match="relative tolerance"):
        StudyConfig(family=Family.ENRICHED_P, k=4, max_level=2, rel_tol=rel_tol)


def test_solver_failure_keeps_level_and_counts():
    # no iterate reaches a relative residual of 1e-300 on 8 unknowns
    config = StudyConfig(family=Family.ENRICHED_P, k=4, max_level=2,
                         rel_tol=1e-300, solver="cg")
    with pytest.raises(assembly.NotConverged) as err:
        run_study(config)
    assert str(err.value).startswith("level 2: no convergence after")
    assert 0 < err.value.iterations <= 50 * 8
    assert err.value.residual >= 0.0


def _pointwise_jumps(dm, coeffs, samples):
    """Per interior edge (lower/left element, upper/right element): the max
    value/gradient jump from per-point evaluation; plus max |u_h| below."""
    ts = (np.arange(samples) + 0.5) / samples
    mesh = dm.mesh
    n, h = mesh.n, mesh.h
    edges = [((i, j - 1), (i, j), [((i + t) * h, j * h) for t in ts])
             for j in range(1, n) for i in range(n)]
    edges += [((i - 1, j), (i, j), [(i * h, (j + t) * h) for t in ts])
              for j in range(n) for i in range(1, n)]
    jumps = {}
    umax = 0.0
    for lo, hi, points in edges:
        lo, hi = mesh.element_id(*lo), mesh.element_id(*hi)
        worst = 0.0
        for x, y in points:
            for d in ((0, 0), (1, 0), (0, 1)):
                a = assembly.evaluate_solution(dm, coeffs, x, y, d, element=lo)
                b = assembly.evaluate_solution(dm, coeffs, x, y, d, element=hi)
                worst = max(worst, abs(a - b))
                if d == (0, 0):
                    umax = max(umax, abs(a))
        jumps[(lo, hi)] = worst
    return jumps, umax


def _permuted_map():
    """p-enriched k=5 level 3 with element (1, 2)'s local-to-global row
    reversed, which makes the function non-conforming across exactly that
    element's four edges; random coefficients."""
    dm = build_dof_map(build_mesh(3), element_basis(Family.ENRICHED_P, 5))
    l2g = dm.local_to_global.copy()
    bad = dm.mesh.element_id(1, 2)
    l2g[bad] = l2g[bad, ::-1]
    return replace(dm, local_to_global=l2g), np.random.default_rng(3).standard_normal(dm.total)


def test_c1_jump_matches_pointwise_on_permuted_map():
    broken, coeffs = _permuted_map()
    mesh = broken.mesh
    bad = mesh.element_id(1, 2)
    jumps, umax = _pointwise_jumps(broken, coeffs, samples=4)
    assert len(jumps) == 2 * mesh.n * (mesh.n - 1)
    known = {(mesh.element_id(1, 1), bad), (bad, mesh.element_id(1, 3)),
             (mesh.element_id(0, 2), bad), (bad, mesh.element_id(2, 2))}
    assert {edge for edge, jump in jumps.items() if jump > 1e-6} == known
    expected = max(jumps.values()) / umax
    assert c1_jump(broken, coeffs, samples_per_edge=4) == pytest.approx(
        expected, rel=1e-12)


def test_c1_jump_rejects_bad_sample_counts():
    # a count below 1 samples nothing, and the empty maximum 0.0 would pass
    broken, coeffs = _permuted_map()
    assert c1_jump(broken, coeffs, 4) == pytest.approx(26.3787, rel=1e-5)
    for samples in (0, -3, 2.5):
        with pytest.raises(ValueError, match="samples per edge"):
            c1_jump(broken, coeffs, samples)


def test_dof_map_functions_take_no_mesh_or_basis():
    # the map carries its mesh and basis, so a function that takes one
    # cannot be handed a mesh or basis that disagrees with it
    checked = set()
    for module in (assembly, study):
        for name, fn in inspect.getmembers(module, inspect.isfunction):
            if name.startswith("_") or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            if "dof_map" in params:
                checked.add(name)
                assert not {"mesh", "basis"} & set(params), name
    assert checked >= {"assemble", "evaluate_on_elements", "evaluate_solution",
                       "error_norms", "c1_jump", "interpolate"}


def _side_points(samples):
    """c1_jump's reference samples on the bottom, top, left and right sides."""
    ts = (np.arange(samples) + 0.5) / samples
    zeros, ones = np.zeros_like(ts), np.ones_like(ts)
    return np.concatenate([np.column_stack(p) for p in
                           ((ts, zeros), (ts, ones), (zeros, ts), (ones, ts))])


@pytest.mark.parametrize("family", list(Family))
def test_side_points_by_blocks_equal_one_row_at_a_time(family, rng):
    # the whole grid runs by blocks of 19 (p-enriched) or 12 (q-bfs) element
    # rows; each row has the bits of a one-row product
    eb = element_basis(family, 8)
    mesh = RectMesh(32)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = rng.standard_normal(dm.total)
    sides = _side_points(10)
    assert len(assembly.element_row_blocks(mesh, max(len(sides), eb.dim))) > 1
    n = mesh.n
    for d in ((0, 0), (1, 0), (0, 1)):
        whole = assembly.evaluate_on_elements(dm, coeffs, sides, d)
        rows = [assembly.evaluate_on_elements(dm, coeffs, sides, d,
                                             slice(j * n, (j + 1) * n)) for j in range(n)]
        assert np.array_equal(whole, np.concatenate(rows))


def test_c1_jump_holds_no_whole_coefficient_gather(rng):
    # q-bfs k=8 at n = 32: gathering every element's coefficients is 0.66 MB;
    # by blocks of element rows c1_jump traced 0.94 MB, 1.35 MB with the
    # whole-mesh gather
    eb = element_basis(Family.BFS_Q, 8)
    mesh = RectMesh(32)
    dm = clamped_flags(build_dof_map(mesh, eb))
    coeffs = rng.standard_normal(dm.total)
    tracemalloc.start()
    try:
        c1_jump(dm, coeffs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.0e6


def test_verify_passes_representative_cases():
    for family, k, level, dim in ((Family.ENRICHED_P, 4, 2, 48),
                                  (Family.ENRICHED_P, 6, 1, 36),
                                  (Family.BFS_Q, 8, 2, 256)):
        checks = verify(family, k, level)
        by_name = {c.name: c for c in checks}
        assert by_name["dimension_count"].value == dim
        failed = [c.name for c in checks if not c.passed]
        assert not failed, f"{family} k={k}: failing checks {failed}"


@pytest.mark.parametrize("family", list(Family))
@pytest.mark.parametrize("k", [4, 5, 6, 7, 8])
def test_space_reproduction_sums_in_term_order(monkeypatch, family, k):
    # the running sums of the random member and of its interpolant add the
    # terms in the order of a loop over them, so both are bit-identical
    basis = element_basis(family, k)
    span = elements._pk_monomials if family is Family.ENRICHED_P else elements._qk_monomials
    monos = span(k)
    coeffs = np.random.default_rng(7).uniform(-1.0, 1.0, size=len(monos))
    p = monos[0] * coeffs[0]
    for a, m in zip(coeffs[1:], monos[1:]):
        p = p + a * m
    dof_values = study.functional_matrix(basis.dofs, p[None])[:, 0]
    interp = basis.nodal[0] * dof_values[0]
    for a, phi in zip(dof_values[1:], basis.nodal[1:]):
        interp = interp + a * phi
    seen, functional_matrix = [], study.functional_matrix
    monkeypatch.setattr(study, "functional_matrix",
                        lambda dofs, polys: seen.append(polys[0]) or functional_matrix(dofs, polys))
    got = study._space_reproduction(basis, np.random.default_rng(7))
    assert len(seen) == 1 and np.array_equal(seen[0], p)
    assert got == float(np.max(np.abs(interp - p))) / max(float(np.max(np.abs(p))), 1.0)


def test_study_traced_peak():
    # p-enriched k=5 to level 6 traces about 7.7 MB, 7.9 MB when the run
    # builds the element basis; flat extend-add index tables, a second
    # buffer per Schur complement, slot tables gathered while the Schur
    # complements are held and a new error grid per operation made 8.87 MB
    tracemalloc.start()
    try:
        run_study(StudyConfig(family=Family.ENRICHED_P, k=5, max_level=6))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8.2e6


def test_expected_dim_formula():
    assert expected_dim(Family.ENRICHED_P, 4, 1) == 20
    assert expected_dim(Family.ENRICHED_P, 8, 2) == 148
    assert expected_dim(Family.BFS_Q, 6, 2) == (5 * 2 + 2) ** 2


@pytest.mark.parametrize("family,k", [(Family.ENRICHED_P, 6), (Family.BFS_Q, 5)])
def test_tensor_grid_errors_match_per_element_points(family, k):
    # reference: each element's corner plus h times the rule's points, and
    # the FE function from a fresh tabulation of the rule's grid; n = 3
    # makes h inexact
    eb = element_basis(family, k)
    mesh = RectMesh(3)
    dm = clamped_flags(build_dof_map(mesh, eb))
    exact = exact_solution()
    coeffs = interpolate(exact, dm)
    rule = assembly.reference_table(eb).quad
    x0, y0 = mesh.element_corner(np.arange(mesh.n_elements))
    xs = x0[:, None] + mesh.h * rule.points[:, 0]
    ys = y0[:, None] + mesh.h * rule.points[:, 1]
    for fn, d in ((exact.u, (0, 0)), (exact.uxx, (2, 0)), (exact.uxy, (1, 1)),
                  (exact.uyy, (0, 2))):
        scale = mesh.h ** (eb.deriv_orders - sum(d)).astype(float)
        fresh = eb.tabulate_grid(rule.nodes, d) * scale
        old = fn(xs, ys) - coeffs[dm.local_to_global] @ fresh.T
        new = assembly.on_quadrature_grid(fn, mesh, rule) - \
            assembly.evaluate_on_elements(dm, coeffs, None, d)
        assert np.array_equal(new, old)


def test_study_tabulates_once_per_basis(monkeypatch):
    calls = Counter()
    tabulate = ElementBasis.tabulate_grid

    def counted(self, *args):
        calls[self] += 1
        return tabulate(self, *args)

    monkeypatch.setattr(ElementBasis, "tabulate_grid", counted)
    assembly.reference_table.cache_clear()
    for family in Family:
        run_study(StudyConfig(family=family, k=4, max_level=5))
    assert len(calls) == 2 and max(calls.values()) <= 6


def test_reference_table_outlives_its_study_only_until_the_next_basis():
    run_study(StudyConfig(family=Family.ENRICHED_P, k=4, max_level=2))
    table = weakref.ref(assembly.reference_table(element_basis(Family.ENRICHED_P, 4)))
    run_study(StudyConfig(family=Family.BFS_Q, k=4, max_level=2))
    gc.collect()
    assert table() is None
    assert assembly.reference_table.cache_info().currsize == 1


def test_unisolvency_counts_can_fail(monkeypatch):
    # one interior DOF too many in the layout count against the closed form
    patched = copy.copy(element_basis(Family.ENRICHED_P, 4))
    patched.interior_dof_count += 1
    monkeypatch.setattr(elements, "element_basis", lambda family, k: patched)
    by_name = {c.name: c for c in verify(Family.ENRICHED_P, 4, 2)}
    assert not by_name["unisolvency_counts"].passed
    assert by_name["unisolvency_counts"].value == 1.0
