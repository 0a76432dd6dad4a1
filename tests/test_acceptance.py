"""End-to-end acceptance checks.

Each criterion prints one PASS/FAIL line (run pytest with -s to see them all)
and asserts its stated tolerance.  The reference error values and dimensions
are frozen below; dimension, sanity, property and solver criteria reproduce
exactly, while two groups record a known discrepancy (see README, Known
discrepancies): several error-magnitude rows for the enriched family, where
the element built per its definition yields consistently smaller errors than
the recorded reference rows (criteria 2, 5 and the k=4/k=5 rows of 3), and
the k=8 orders of criterion 3, limited by the roundoff floor of the stored
float64 operator.  Both solvers return the solution of the stored system
(refined on a long-double residual), so criterion 7 checks them against each
other to 1e-8.
"""

import math

import numpy as np
import pytest

from c1rect import assembly
from c1rect.elements import Family, element_basis
from c1rect.mesh import build_dof_map, build_mesh, clamped_flags
from c1rect.poly2d import polyval
from c1rect.study import c1_jump, error_norms, exact_solution, verify
from conftest import PATCH_F, PATCH_U, cached_study

EP, QB = Family.ENRICHED_P, Family.BFS_Q

#: reference dim V_h columns, levels 1..4
REFERENCE_DIMS = {
    (EP, 4): (20, 48, 140, 468),
    (EP, 5): (28, 72, 220, 756),
    (EP, 6): (36, 96, 300, 1044),
    (EP, 7): (44, 120, 380, 1332),
    (EP, 8): (53, 148, 476, 1684),
    (QB, 4): (25, 64, 196, 676),
    (QB, 5): (36, 100, 324, 1156),
    (QB, 6): (49, 144, 484, 1764),
    (QB, 7): (64, 196, 676, 2500),
    (QB, 8): (81, 256, 900, 3364),
}

#: (family, k, level, reference L2 error, relative tolerance)
REFERENCE_L2 = [
    (EP, 4, 4, 3.07e-5, 0.10),
    (EP, 4, 5, 8.71e-7, 0.10),
    (EP, 5, 4, 1.09e-5, 0.10),
    (QB, 4, 4, 4.61e-6, 0.10),
    (EP, 6, 3, 4.08e-5, 0.15),
]

MAX_LEVEL = {4: 5, 5: 5, 6: 4, 7: 4, 8: 4}


def _report(label, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {label}" + (f": {detail}" if detail else ""))
    return ok


def test_criterion_1_dimensions():
    ok = True
    for (family, k), dims in REFERENCE_DIMS.items():
        rep = cached_study(family, k, 4)
        got = tuple(r.dim for r in rep.rows)
        if got != dims:
            ok = False
            print(f"  {family.value} k={k}: got {got}, expected {dims}")
    assert _report("criterion 1 (dimension reproduction, levels 1-4)", ok)


def test_criterion_2_l2_errors():
    lines = []
    ok = True
    for family, k, level, ref, tol in REFERENCE_L2:
        rep = cached_study(family, k, MAX_LEVEL[k])
        got = rep.rows[level - 1].l2_err
        good = abs(got - ref) <= tol * ref
        ok &= good
        lines.append(f"{family.value} k={k} lvl{level}: {got:.3e} vs {ref:.3e}"
                     f" +-{tol:.0%} -> {'ok' if good else 'OUT'}")
    assert _report("criterion 2 (L2 error reproduction)", ok, "; ".join(lines)), (
        "L2 reproduction failed: " + "; ".join(lines)
        + " | measured errors for the enriched family are consistently below"
          " the reference rows (known discrepancy)")


def _order(rep, lo, hi, attr):
    a = getattr(rep.rows[lo - 1], attr)
    b = getattr(rep.rows[hi - 1], attr)
    return math.log2(a / b)


def test_criterion_3_convergence_orders():
    checks = []
    rep4 = cached_study(EP, 4, 5)
    checks.append(("k=4 L2 4->5", _order(rep4, 4, 5, "l2_err"), 5.0, 0.3))
    checks.append(("k=4 H2 4->5", _order(rep4, 4, 5, "h2_err"), 3.0, 0.3))
    rep5 = cached_study(EP, 5, 5)
    checks.append(("k=5 L2 4->5", _order(rep5, 4, 5, "l2_err"), 6.0, 0.3))
    checks.append(("k=5 H2 4->5", _order(rep5, 4, 5, "h2_err"), 4.0, 0.3))
    for k in (6, 7, 8):
        rep = cached_study(EP, k, 4)
        checks.append((f"k={k} L2 3->4", _order(rep, 3, 4, "l2_err"), k + 1.0, 0.5))
        checks.append((f"k={k} H2 3->4", _order(rep, 3, 4, "h2_err"), k - 1.0, 0.5))
    ok = True
    lines = []
    for label, got, centre, width in checks:
        good = abs(got - centre) <= width
        ok &= good
        lines.append(f"{label}: {got:.2f} vs {centre} +-{width} -> "
                     f"{'ok' if good else 'OUT'}")
    assert _report("criterion 3 (convergence orders)", ok, "; ".join(lines)), (
        "order check failed: " + "; ".join(lines))


def test_criterion_4_zero_solution_sanity():
    rep = cached_study(EP, 4, 5)
    row = rep.rows[0]
    mesh = build_mesh(1)
    dm = clamped_flags(build_dof_map(mesh, element_basis(EP, 4)))
    system = assembly.assemble(dm, exact_solution().f)
    result = assembly.solve(system)
    ok = (system.n_free == 0 and np.all(result.coeffs == 0.0)
          and abs(row.l2_err - 0.375) <= 1e-6)
    assert _report("criterion 4 (level-1 clamped zero solution, L2 = 0.375)",
                   ok, f"L2 {row.l2_err:.9f}")


def test_criterion_5_h2_value():
    rep = cached_study(EP, 4, 5)
    got = rep.rows[4].h2_err
    ref, tol = 9.92e-3, 0.30
    ok = abs(got - ref) <= tol * ref
    assert _report("criterion 5 (k=4 level-5 H2 value, +-30%)", ok,
                   f"{got:.3e} vs {ref:.3e}"), (
        f"H2 value {got:.3e} outside {ref:.3e} +-30% (known discrepancy: "
        "measured H2 errors are below the reference rows)")


#: verify checks criterion 6 takes over, with the thresholds it requires
CRITERION_6_CHECKS = {
    "duality_residual": 1e-9,
    "unisolvency_counts": 0.0,
    "unisolvency_rcond": 1e-12,
    "space_reproduction": 1e-9,
}


def test_criterion_6_property_suite(rng):
    failures = []

    # duality, unisolvency and P_k / Q_k reproduction: the library's checks
    for family in (EP, QB):
        for k in range(4, 9):
            checks = {c.name: c for c in verify(family, k, 3)}
            for name, threshold in CRITERION_6_CHECKS.items():
                c = checks[name]
                if c.threshold != threshold or not c.passed:
                    failures.append(f"{name} {family.value} k={k}: {c.value:.2e}"
                                    f" (threshold {c.threshold:.0e})")

    # C1 jumps on level 3 for every element
    mesh = build_mesh(3)
    for family in (EP, QB):
        for k in range(4, 9):
            eb = element_basis(family, k)
            dm = clamped_flags(build_dof_map(mesh, eb))
            coeffs = rng.standard_normal(dm.total)
            jump = c1_jump(dm, coeffs, samples_per_edge=5)
            if jump >= 1e-8:
                failures.append(f"c1 jump {family.value} k={k}: {jump:.2e}")

    # polynomial patch test in both families
    mesh2 = build_mesh(2)
    for family, k in ((QB, 4), (EP, 8)):
        eb = element_basis(family, k)
        dm = clamped_flags(build_dof_map(mesh2, eb))
        system = assembly.assemble(dm, lambda X, Y: polyval(PATCH_F, X, Y))
        result = assembly.solve(system, method="direct")
        worst = 0.0
        for _ in range(40):
            x, y = rng.uniform(0, 1, size=2)
            got = assembly.evaluate_solution(dm, result.coeffs, x, y)
            worst = max(worst, abs(got - float(polyval(PATCH_U, x, y))))
        if worst >= 1e-8:
            failures.append(f"patch test {family.value} k={k}: {worst:.2e}")

    assert _report("criterion 6 (property suite)", not failures,
                   "; ".join(failures) or "all properties hold"), failures


def test_criterion_7_solver_cross_check():
    exact = exact_solution()
    lines = []
    ok = True
    for family in (EP, QB):
        for k in range(4, 9):
            for level in range(2, 6):
                eb = element_basis(family, k)
                mesh = build_mesh(level)
                dm = clamped_flags(build_dof_map(mesh, eb))
                if dm.total > 3000:
                    continue
                system = assembly.assemble(dm, exact.f)
                direct = assembly.solve(system, method="direct")
                try:
                    cg = assembly.solve(system, rel_tol=1e-13, method="cg")
                except assembly.NotConverged as err:
                    ok = False
                    lines.append(f"{family.value} k={k} lvl{level} (dim "
                                 f"{dm.total}): CG {err}")
                    continue
                scale = float(np.max(np.abs(direct.coeffs)))
                diff = float(np.max(np.abs(cg.coeffs - direct.coeffs))) / scale
                if diff >= 1e-8:
                    ok = False
                    lines.append(f"{family.value} k={k} lvl{level}: diff {diff:.2e}")
    assert _report("criterion 7 (CG vs direct, dim <= 3000)", ok,
                   "; ".join(lines) or "all systems agree to 1e-8"), lines
