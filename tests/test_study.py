import math
from dataclasses import replace

import numpy as np
import pytest

from c1rect import assembly
from c1rect.elements import Family, element_basis
from c1rect.mesh import build_dof_map, build_mesh, clamped_flags
from c1rect.poly2d import Poly2D
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
    l2, h2 = error_norms(mesh, dm, eb, np.zeros(dm.total), exact)
    assert l2 == pytest.approx(0.375, rel=1e-10)
    assert h2 == pytest.approx(math.sqrt(2.0) * math.pi**2, rel=1e-10)


def test_interpolation_reproduces_total_degree_space(rng):
    # a global polynomial of total degree k interpolates exactly
    k = 5
    eb = element_basis(Family.ENRICHED_P, k)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)
    monos = [(i, d - i) for d in range(k + 1) for i in range(d, -1, -1)]
    coeffs = rng.uniform(-1, 1, size=len(monos))
    p = Poly2D.zero()
    for a, (i, j) in zip(coeffs, monos):
        p = p + a * Poly2D.monomial(i, j)

    class PolyExact:
        u = staticmethod(lambda x, y: p(x, y))
        ux = staticmethod(lambda x, y: p.derivative(1, 0)(x, y))
        uy = staticmethod(lambda x, y: p.derivative(0, 1)(x, y))
        uxy = staticmethod(lambda x, y: p.derivative(1, 1)(x, y))

    vec = interpolate(PolyExact, mesh, dm, eb)
    for _ in range(25):
        x, y = rng.uniform(0, 1, size=2)
        got = assembly.evaluate_solution(mesh, dm, eb, vec, x, y)
        assert got == pytest.approx(float(p(x, y)), abs=1e-9)


def test_interpolating_constant_sets_value_dofs():
    eb = element_basis(Family.BFS_Q, 4)
    mesh = build_mesh(2)
    dm = build_dof_map(mesh, eb)

    class One:
        u = staticmethod(lambda x, y: np.ones_like(np.asarray(x, dtype=float)))
        ux = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        uy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))
        uxy = staticmethod(lambda x, y: np.zeros_like(np.asarray(x, dtype=float)))

    vec = interpolate(One, mesh, dm, eb)
    assert np.allclose(vec[dm.kind_code == 0], 1.0)
    assert np.allclose(vec[dm.kind_code != 0], 0.0)


def test_interpolant_of_exact_solution_respects_clamping():
    exact = exact_solution()
    eb = element_basis(Family.ENRICHED_P, 4)
    mesh = build_mesh(3)
    dm = clamped_flags(mesh, build_dof_map(mesh, eb))
    vec = interpolate(exact, mesh, dm, eb)
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
        vec = interpolate(exact, mesh, dm, eb)
        l2, _ = error_norms(mesh, dm, eb, vec, exact)
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
    assert rep.meta["levels"][0]["nnz"] == rep.meta["levels"][0]["fill"] == 0
    for row in rep.meta["levels"][1:]:
        assert row["fill"] >= row["nnz"] > 0
    for row in rep.meta["levels"]:
        for stage in ("dof_map_s", "assemble_s", "solve_s", "errors_s"):
            assert row[stage] >= 0.0


def test_direct_solve_above_dense_size():
    # 23 940 free DOFs: a dense factor would hold 4.6 GB
    rep = cached_study(Family.ENRICHED_P, 4, 7)
    finest = rep.meta["levels"][-1]
    assert finest["method"] == "direct"
    assert finest["free_dofs"] == 23940
    assert finest["residual"] <= 1e-9
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


def _pointwise_jumps(mesh, dm, eb, coeffs, samples):
    """Per interior edge (lower/left element, upper/right element): the max
    value/gradient jump from per-point evaluation; plus max |u_h| below."""
    ts = (np.arange(samples) + 0.5) / samples
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
                a = assembly.evaluate_solution(mesh, dm, eb, coeffs, x, y, d, element=lo)
                b = assembly.evaluate_solution(mesh, dm, eb, coeffs, x, y, d, element=hi)
                worst = max(worst, abs(a - b))
                if d == (0, 0):
                    umax = max(umax, abs(a))
        jumps[(lo, hi)] = worst
    return jumps, umax


def test_c1_jump_matches_pointwise_on_permuted_map():
    # reversing one element's local-to-global row makes the function
    # non-conforming across exactly that element's four edges
    eb = element_basis(Family.ENRICHED_P, 5)
    mesh = build_mesh(3)
    dm = build_dof_map(mesh, eb)
    l2g = dm.local_to_global.copy()
    bad = mesh.element_id(1, 2)
    l2g[bad] = l2g[bad, ::-1]
    broken = replace(dm, local_to_global=l2g)
    coeffs = np.random.default_rng(3).standard_normal(dm.total)

    jumps, umax = _pointwise_jumps(mesh, broken, eb, coeffs, samples=4)
    assert len(jumps) == 2 * mesh.n * (mesh.n - 1)
    known = {(mesh.element_id(1, 1), bad), (bad, mesh.element_id(1, 3)),
             (mesh.element_id(0, 2), bad), (bad, mesh.element_id(2, 2))}
    assert {edge for edge, jump in jumps.items() if jump > 1e-6} == known
    expected = max(jumps.values()) / umax
    assert c1_jump(mesh, broken, eb, coeffs, samples_per_edge=4) == pytest.approx(
        expected, rel=1e-12)


def test_verify_passes_representative_cases():
    for family, k, level, dim in ((Family.ENRICHED_P, 4, 2, 48),
                                  (Family.ENRICHED_P, 6, 1, 36),
                                  (Family.BFS_Q, 8, 2, 256)):
        checks = verify(family, k, level)
        by_name = {c.name: c for c in checks}
        assert by_name["dimension_count"].value == dim
        failed = [c.name for c in checks if not c.passed]
        assert not failed, f"{family} k={k}: failing checks {failed}"


def test_expected_dim_formula():
    assert expected_dim(Family.ENRICHED_P, 4, 1) == 20
    assert expected_dim(Family.ENRICHED_P, 8, 2) == 148
    assert expected_dim(Family.BFS_Q, 6, 2) == (5 * 2 + 2) ** 2
