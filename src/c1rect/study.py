"""Manufactured-solution convergence studies for the clamped plate problem.

The test problem is lap^2 u = f on the unit square with u = du/dn = 0 on the
boundary and exact solution u = sin^2(pi x) sin^2(pi y).  A study solves on
the uniform refinement levels, measures L2 and H2 errors against the exact
derivatives, and reports dimensions and observed orders; ``verify`` runs the
element/mesh/quadrature invariant checks as data.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import assembly
from .assembly import QuadratureRule, SolveResult, gauss_rule
from .elements import ElementBasis, Family, element_basis, unisolvency_report
from .mesh import DofMap, RectMesh, build_dof_map, build_mesh, clamped_flags
from .poly2d import FloatArray, functional_matrix


@dataclass(frozen=True)
class ExactSolution:
    """Exact solution with the derivatives needed for DOFs and error norms."""

    u: Callable
    ux: Callable
    uy: Callable
    uxy: Callable
    uxx: Callable
    uyy: Callable
    f: Callable


def exact_solution() -> ExactSolution:
    """u = sin^2(pi x) sin^2(pi y) and f = lap^2 u in closed form."""
    pi = np.pi

    def u(x, y):
        return np.sin(pi * x) ** 2 * np.sin(pi * y) ** 2

    def ux(x, y):
        return pi * np.sin(2 * pi * x) * np.sin(pi * y) ** 2

    def uy(x, y):
        return pi * np.sin(2 * pi * y) * np.sin(pi * x) ** 2

    def uxy(x, y):
        return pi**2 * np.sin(2 * pi * x) * np.sin(2 * pi * y)

    def uxx(x, y):
        return 2 * pi**2 * np.cos(2 * pi * x) * np.sin(pi * y) ** 2

    def uyy(x, y):
        return 2 * pi**2 * np.cos(2 * pi * y) * np.sin(pi * x) ** 2

    def f(x, y):
        cx = np.cos(2 * pi * np.asarray(x, dtype=float))
        cy = np.cos(2 * pi * np.asarray(y, dtype=float))
        return 4 * pi**4 * (4 * cx * cy - cx - cy)

    return ExactSolution(u=u, ux=ux, uy=uy, uxy=uxy, uxx=uxx, uyy=uyy, f=f)


_KIND_DERIVS = {0: "u", 1: "ux", 2: "uy", 3: "uxy"}


def interpolate(exact: ExactSolution, mesh: RectMesh, dof_map: DofMap,
                basis: ElementBasis) -> FloatArray:
    """Nodal interpolant: each global DOF set to its functional applied to u."""
    coeffs = np.empty(dof_map.total)
    x, y = dof_map.points[:, 0], dof_map.points[:, 1]
    for code, name in _KIND_DERIVS.items():
        sel = dof_map.kind_code == code
        if np.any(sel):
            coeffs[sel] = getattr(exact, name)(x[sel], y[sel])
    return coeffs


def error_norms(
    mesh: RectMesh,
    dof_map: DofMap,
    basis: ElementBasis,
    coeffs: FloatArray,
    exact: ExactSolution,
    quad: QuadratureRule | None = None,
) -> tuple[float, float]:
    """(L2, H2-seminorm) errors of the FE function against the exact solution.

    The H2 seminorm weights the mixed second derivative twice:
    |e|_2^2 = int e_xx^2 + 2 e_xy^2 + e_yy^2.
    """
    q = quad if quad is not None else assembly.default_load_rule(basis.k)
    h = mesh.h
    x0, y0 = mesh.element_corner(np.arange(mesh.n_elements))
    xs = x0[:, None] + h * q.points[:, 0]
    ys = y0[:, None] + h * q.points[:, 1]

    def error(exact_fn, deriv):
        return exact_fn(xs, ys) - assembly.evaluate_on_elements(
            mesh, dof_map, basis, coeffs, q.points, deriv)

    e00 = error(exact.u, (0, 0))
    e20 = error(exact.uxx, (2, 0))
    e11 = error(exact.uxy, (1, 1))
    e02 = error(exact.uyy, (0, 2))
    l2 = h**2 * float(np.sum((e00 * e00) @ q.weights))
    h2 = h**2 * float(np.sum((e20 * e20 + 2.0 * e11 * e11 + e02 * e02) @ q.weights))
    return math.sqrt(l2), math.sqrt(h2)


# ---------------------------------------------------------------------------
# study driver


@dataclass
class StudyConfig:
    family: Family
    k: int
    max_level: int
    rel_tol: float = 1e-13
    solver: str = "direct"

    def __post_init__(self):
        self.family = Family(self.family)
        if not 4 <= self.k <= 8:
            raise ValueError("degree must be between 4 and 8")
        if self.max_level < 1:
            raise ValueError("need at least one level")
        if self.solver not in assembly.SOLVER_METHODS:
            raise ValueError(f"unknown solver {self.solver!r}")
        if not (math.isfinite(self.rel_tol) and self.rel_tol > 0.0):
            raise ValueError(f"relative tolerance must be finite and positive, "
                             f"got {self.rel_tol}")


def default_max_level(k: int) -> int:
    """Desk-scale caps: levels 1..6 for k <= 5, 1..4 for higher degrees."""
    return 6 if k <= 5 else 4


@dataclass
class StudyRow:
    level: int
    n: int
    dim: int
    l2_err: float
    l2_order: float
    h2_err: float
    h2_order: float


@dataclass
class StudyReport:
    config: StudyConfig
    rows: list[StudyRow]
    meta: dict = field(default_factory=dict)


def run_study(config: StudyConfig) -> StudyReport:
    """Solve on levels 1..max_level and collect errors, orders, dimensions.

    The reported dim is the unconstrained global DOF count; the solves use
    the clamped reduced system internally.  Solver errors propagate with the
    level annotated.  Each ``meta["levels"]`` entry carries the wall time of
    the level's stages: mesh and DOF map, assembly, solve and error norms.
    """
    basis = element_basis(config.family, config.k)
    exact = exact_solution()
    rows: list[StudyRow] = []
    level_meta = []
    for level in range(1, config.max_level + 1):
        t0 = time.perf_counter()
        mesh = build_mesh(level)
        dof_map = clamped_flags(mesh, build_dof_map(mesh, basis))
        t1 = time.perf_counter()
        system = assembly.assemble(mesh, dof_map, basis, exact.f)
        t2 = time.perf_counter()
        try:
            result = assembly.solve(system, rel_tol=config.rel_tol,
                                    method=config.solver)
        except (assembly.NotConverged, assembly.NotSPD) as err:
            err.args = (f"level {level}: {err}",)
            raise
        t3 = time.perf_counter()
        l2, h2 = error_norms(mesh, dof_map, basis, result.coeffs, exact)
        t4 = time.perf_counter()
        l2_order = math.log2(rows[-1].l2_err / l2) if rows else 0.0
        h2_order = math.log2(rows[-1].h2_err / h2) if rows else 0.0
        rows.append(StudyRow(level=level, n=mesh.n, dim=dof_map.total,
                             l2_err=l2, l2_order=l2_order,
                             h2_err=h2, h2_order=h2_order))
        level_meta.append({"level": level, "method": result.method,
                           "iterations": result.iterations,
                           "residual": result.residual,
                           "free_dofs": system.n_free,
                           "nnz": system.matrix.nnz, "fill": result.fill,
                           "dof_map_s": t1 - t0, "assemble_s": t2 - t1,
                           "solve_s": t3 - t2, "errors_s": t4 - t3})
    meta = {
        "quad_stiffness_points": config.k + 1,
        "quad_load_points": config.k + 6,
        "levels": level_meta,
    }
    return StudyReport(config=config, rows=rows, meta=meta)


# ---------------------------------------------------------------------------
# report output

CSV_COLUMNS = ("level", "n", "dim", "l2_err", "l2_order", "h2_err", "h2_order")


def format_table(report: StudyReport) -> str:
    cfg = report.config
    lines = [
        f"family={cfg.family.value} k={cfg.k}",
        f"{'grid':>4} {'||u-u_h||_0':>12} {'O(h^r)':>7} "
        f"{'|u-u_h|_2':>12} {'O(h^r)':>7} {'dim V_h':>8}",
    ]
    for r in report.rows:
        lines.append(
            f"{r.level:>4} {r.l2_err:>12.2e} {r.l2_order:>7.1f} "
            f"{r.h2_err:>12.2e} {r.h2_order:>7.1f} {r.dim:>8}"
        )
    return "\n".join(lines)


def report_csv(report: StudyReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for r in report.rows:
        writer.writerow([r.level, r.n, r.dim, repr(r.l2_err), repr(r.l2_order),
                         repr(r.h2_err), repr(r.h2_order)])
    return buf.getvalue()


def parse_csv(text: str) -> list[StudyRow]:
    """Inverse of :func:`report_csv`; round-trips rows exactly."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if tuple(header) != CSV_COLUMNS:
        raise ValueError(f"unexpected CSV header {header}")
    return [
        StudyRow(level=int(row[0]), n=int(row[1]), dim=int(row[2]),
                 l2_err=float(row[3]), l2_order=float(row[4]),
                 h2_err=float(row[5]), h2_order=float(row[6]))
        for row in reader if row
    ]


def report_json(report: StudyReport) -> str:
    payload = {
        "config": {
            "family": report.config.family.value,
            "k": report.config.k,
            "max_level": report.config.max_level,
            "rel_tol": report.config.rel_tol,
            "solver": report.config.solver,
        },
        "rows": [asdict(r) for r in report.rows],
        "meta": report.meta,
    }
    return json.dumps(payload, indent=2)


# ---------------------------------------------------------------------------
# invariant verification


def expected_dim(family: Family, k: int, n: int) -> int:
    """Closed-form global DOF count on an n x n mesh."""
    family = Family(family)
    if family is Family.ENRICHED_P:
        per_edge = 2 * k - 7
        per_int = (k - 7) * (k - 6) // 2 if k > 7 else 0
    else:
        per_edge = 2 * (k - 3)
        per_int = (k - 3) ** 2
    return 4 * (n + 1) ** 2 + per_edge * 2 * n * (n + 1) + per_int * n * n


@dataclass
class Check:
    name: str
    passed: bool
    value: float
    threshold: float
    note: str = ""


def c1_jump(mesh: RectMesh, dof_map: DofMap, basis: ElementBasis,
            coeffs: FloatArray, samples_per_edge: int = 10) -> float:
    """Max value/gradient jump across interior edges, relative to max |u_h|.

    Any global coefficient vector defines a conforming function, so the
    jumps measure roundoff, not discretization.
    """
    ts = (np.arange(samples_per_edge) + 0.5) / samples_per_edge
    zeros, ones = np.zeros_like(ts), np.ones_like(ts)
    # reference samples on the bottom, top, left and right sides
    sides = np.concatenate([np.column_stack(p) for p in
                            ((ts, zeros), (ts, ones), (zeros, ts), (ones, ts))])
    n, s = mesh.n, samples_per_edge
    worst = 0.0
    umax = 0.0
    for d in ((0, 0), (1, 0), (0, 1)):
        vals = assembly.evaluate_on_elements(mesh, dof_map, basis, coeffs, sides, d)
        bottom, top, left, right = vals.reshape(n, n, 4, s).transpose(2, 0, 1, 3)
        # (lower/left side, upper/right side) of every interior h- and v-edge
        for lo, hi in ((top[:-1], bottom[1:]), (right[:, :-1], left[:, 1:])):
            worst = max(worst, np.max(np.abs(lo - hi), initial=0.0))
            if d == (0, 0):
                umax = max(umax, np.max(np.abs(lo), initial=0.0))
    return float(worst / max(umax, 1e-300))


def _duality_residual(basis: ElementBasis) -> float:
    V = functional_matrix(basis.dofs, basis.nodal)
    return float(np.max(np.abs(V - np.eye(basis.dim))))


def _space_reproduction(basis: ElementBasis, rng: np.random.Generator) -> float:
    """Relative coefficient error of interpolating a random member of the
    element's polynomial space (total-degree or tensor, by family)."""
    from .elements import _pk_monomials
    from .poly2d import Poly2D

    if basis.family is Family.ENRICHED_P:
        monos = _pk_monomials(basis.k)
    else:
        monos = [Poly2D.monomial(i, j)
                 for i in range(basis.k + 1) for j in range(basis.k + 1)]
    coeffs = rng.uniform(-1.0, 1.0, size=len(monos))
    p = monos[0] * coeffs[0]
    for a, m in zip(coeffs[1:], monos[1:]):
        p = p + a * m
    dof_values = functional_matrix(basis.dofs, [p])[:, 0]
    interp = basis.nodal[0] * dof_values[0]
    for a, phi in zip(dof_values[1:], basis.nodal[1:]):
        interp = interp + a * phi
    scale = max(float(np.max(np.abs(p.coeffs))), 1.0)
    return interp.max_coeff_diff(p) / scale


def verify(family: Family, k: int, level: int) -> list[Check]:
    """Run the invariant suite; failures are data, not exceptions."""
    family = Family(family)
    basis = element_basis(family, k)
    checks: list[Check] = []

    res = _duality_residual(basis)
    checks.append(Check("duality_residual", res < 1e-9, res, 1e-9))

    rep = unisolvency_report(family, k)
    checks.append(Check("unisolvency_counts", rep.dim == rep.n_dof,
                        float(abs(rep.dim - rep.n_dof)), 0.0,
                        note=f"dim={rep.dim} n_dof={rep.n_dof}"))
    checks.append(Check("unisolvency_rcond", rep.rcond > 1e-12, rep.rcond, 1e-12,
                        note="pass when above threshold"))

    rng = np.random.default_rng(2024)
    rerr = _space_reproduction(basis, rng)
    checks.append(Check("space_reproduction", rerr < 1e-9, rerr, 1e-9))

    quad_err = 0.0
    m = k + 1
    rule = gauss_rule(m)
    for a in range(0, 2 * m - 1, max(1, (2 * m - 2) // 4)):
        for b in (0, 2 * m - 1 - a):
            exact_val = 1.0 / ((a + 1) * (b + 1))
            got = float(rule.weights @ (rule.points[:, 0] ** a * rule.points[:, 1] ** b))
            quad_err = max(quad_err, abs(got - exact_val) / exact_val)
    checks.append(Check("quadrature_exactness", quad_err < 1e-13, quad_err, 1e-13))

    mesh = build_mesh(level)
    dof_map = clamped_flags(mesh, build_dof_map(mesh, basis))
    expect = expected_dim(family, k, mesh.n)
    checks.append(Check("dimension_count", dof_map.total == expect,
                        float(dof_map.total), float(expect),
                        note=f"dim={dof_map.total} expected={expect}"))

    coeffs = rng.standard_normal(dof_map.total)
    coeffs[dof_map.is_boundary] = 0.0
    jump = c1_jump(mesh, dof_map, basis, coeffs)
    checks.append(Check("c1_jump_relative", jump < 1e-8, jump, 1e-8))

    return checks
