"""Interleaved A/B timing of two checkouts' studies and verify runs in one process.

    python scripts/ab_time.py <checkout A> <checkout B> [--reps 40] [--workload study-deep]
                              [--solver cg]

Imports ``src/c1rect`` of each checkout under its own package name
(``c1rect_a``, ``c1rect_b``), so both sides share one interpreter, one BLAS
and the same machine state, and alternates them on the cases of the
benchmark's workloads (``perfbench/run.py``): the studies of
``study-deep`` and ``study-high-degree`` and the ``verify`` runs of
``verify-k8``, both families at k=8 level 6; and on ``deep-l8``, p-enriched
k=4 to level 8, a depth that the benchmark does not reach.  A runs first on
even repetitions and B on odd ones.  One repetition of a side times
``run_study`` or ``verify`` over all cases of the workload, studies with
``--solver`` (``direct`` by default, as the benchmark runs), after one
untimed repetition that builds the element bases.  Every repetition starts
with an empty ``assembly.reference_table`` cache and so pays for the
tables: each CLI process builds them once per basis, and warm repetitions
would hide their cost.  The script prints each side's median and quartiles
and the median of the per-repetition ratio B / A with its quartiles.  After the timed repetitions each side runs the workload once
more, untimed, under ``tracemalloc``, and the script prints that run's
traced peak (numpy reports its array buffers to ``tracemalloc``), so a
memory claim gets the same in-process A/B as a time claim.

On a shared machine separate runs of the same code drift by tens of
percent; the ratio of neighbouring runs in one process is the stable
signal.  BLAS runs on one thread, as in ``scripts/element_digest.py``.
Not part of the test suite.
"""

import argparse
import importlib.util
import os
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

#: per workload its cases as (command, family, k, levels or level)
WORKLOADS = {
    "study-deep": [("study", "p-enriched", 4, 6), ("study", "p-enriched", 5, 6)],
    "study-high-degree": [("study", f, k, 4) for f in ("p-enriched", "q-bfs") for k in (6, 7, 8)],
    "verify-k8": [("verify", f, 8, 6) for f in ("p-enriched", "q-bfs")],
    "deep-l8": [("study", "p-enriched", 4, 8)],
}


def load(name: str, checkout: str):
    """``<checkout>/src/c1rect`` imported as the package ``name``."""
    package = Path(checkout, "src", "c1rect")
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def run(c1rect, cases, solver: str) -> float:
    c1rect.assembly.reference_table.cache_clear()
    start = time.perf_counter()
    for command, family, k, level in cases:
        if command == "verify":
            c1rect.verify(c1rect.Family(family), k, level)
        else:
            c1rect.run_study(c1rect.StudyConfig(family=c1rect.Family(family), k=k,
                                                max_level=level, solver=solver))
    return time.perf_counter() - start


def traced_peak(c1rect, cases, solver: str) -> float:
    """Peak of the memory traced by ``tracemalloc`` over one run, in MB."""
    tracemalloc.start()
    try:
        run(c1rect, cases, solver)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def quartiles(values) -> str:
    q1, q2, q3 = np.percentile(values, [25, 50, 75])
    return f"{q2:.4f} (quartiles {q1:.4f}-{q3:.4f})"


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", help="checkout A, the baseline")
    parser.add_argument("b", help="checkout B")
    parser.add_argument("--reps", type=int, default=40)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--solver", choices=("direct", "cg"), default="direct")
    args = parser.parse_args()
    if args.reps < 1:
        parser.error("--reps must be positive")
    sides = [load("c1rect_a", args.a), load("c1rect_b", args.b)]
    for workload in args.workload or sorted(WORKLOADS):
        cases = WORKLOADS[workload]
        for side in sides:
            run(side, cases, args.solver)
        times = np.zeros((args.reps, 2))
        for rep in range(args.reps):
            for i in ((0, 1) if rep % 2 == 0 else (1, 0)):
                times[rep, i] = run(sides[i], cases, args.solver)
        print(f"{workload}: {args.reps} repetitions of {len(cases)} cases "
              f"({args.solver} solver for studies)")
        print(f"  A {quartiles(times[:, 0])} s")
        print(f"  B {quartiles(times[:, 1])} s")
        print(f"  B / A {quartiles(times[:, 1] / times[:, 0])}, "
              f"B faster in {np.count_nonzero(times[:, 1] < times[:, 0])} of {args.reps}")
        peaks = [traced_peak(side, cases, args.solver) for side in sides]
        print(f"  traced peak: A {peaks[0]:.2f} MB, B {peaks[1]:.2f} MB, "
              f"B / A {peaks[1] / peaks[0]:.4f}")


if __name__ == "__main__":
    main()
