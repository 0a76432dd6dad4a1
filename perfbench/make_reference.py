"""Write perfbench/reference.json: the errors each study level is checked against.

Usage (from the repository root; takes a few minutes):

    OPENBLAS_NUM_THREADS=1 python3 perfbench/make_reference.py

For every study case of the benchmark it records each level's L2 and H2
errors, ``moved``, the largest relative change of either error under the
perturbations below, and an accuracy bound ``tol``: a run fails a level
whose error exceeds the recorded one by more than that share.  The bound is
0.01, or 3.0 for a level that is limited by roundoff, found here as a level
whose errors move by more than 1e-3 when every stiffness entry is perturbed
by one unit in the last place.  Such a perturbation moved the q-bfs k=8
level 4 L2 error by up to 76%, and a change of summation order can do the
same.  Verify checks that fail today are recorded, with their values, as
known failures.
"""

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from run import WORKLOADS  # noqa: E402

from c1rect import assembly, study  # noqa: E402

SENSITIVE = 1e-3
TOL_DISCRETIZATION = 0.01
TOL_ROUNDOFF = 3.0
PERTURBATIONS = 3


def errors(case: dict) -> list[tuple[float, float]]:
    config = study.StudyConfig(family=case["family"], k=case["k"], max_level=case["levels"])
    return [(r.l2_err, r.h2_err) for r in study.run_study(config).rows]


def perturbed_errors(case: dict, seed: int) -> list[tuple[float, float]]:
    rng = np.random.default_rng(seed)
    assemble = assembly.assemble

    def perturbed(*args, **kwargs):
        system = assemble(*args, **kwargs)
        noise = 1.0 + np.finfo(float).eps * rng.standard_normal(system.matrix.nnz)
        system.matrix.data *= noise
        system.matrix = ((system.matrix + system.matrix.T) * 0.5).tocsr()
        return system

    assembly.assemble = perturbed
    try:
        return errors(case)
    finally:
        assembly.assemble = assemble


def main() -> None:
    cases = {json.dumps(c, sort_keys=True): c for w in WORKLOADS.values() for c in w}
    ref = {"study": {}, "known_failures": []}
    for case in cases.values():
        if case["command"] == "verify":
            for check in study.verify(case["family"], case["k"], case["level"]):
                if not check.passed:
                    ref["known_failures"].append({
                        "family": case["family"], "k": case["k"], "level": case["level"],
                        "check": check.name, "value": check.value,
                        "threshold": check.threshold})
            continue
        base = errors(case)
        moved = [0.0] * len(base)
        for seed in range(PERTURBATIONS):
            for i, (pair, ref_pair) in enumerate(zip(perturbed_errors(case, seed), base)):
                moved[i] = max(moved[i], *(abs(a - b) / b for a, b in zip(pair, ref_pair)))
        ref["study"][f"{case['family']} k={case['k']}"] = [
            {"level": level, "l2_err": l2, "h2_err": h2, "moved": m,
             "tol": TOL_ROUNDOFF if m > SENSITIVE else TOL_DISCRETIZATION}
            for level, ((l2, h2), m) in enumerate(zip(base, moved), start=1)]
        print(case, [round(m, 6) for m in moved], file=sys.stderr)
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
