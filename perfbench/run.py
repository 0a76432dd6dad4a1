"""Benchmark of the c1rect command line: `study` and `verify` workloads.

Usage (from the repository root):

    python3 perfbench/run.py --workload study-deep --seed 1 --seconds 44 --trace 0

One closed-loop client runs the workload's cases one after another, through
``c1rect.cli.main([... "--format", "json", "--out", file])``.  Each pass runs
in a fresh interpreter (perfbench/worker.py), as every c1rect invocation
does; passes repeat, one child at a time, until the next one would overrun
``--seconds``.  The seed permutes the order of the cases in each pass, which
exposes order-dependent caching; the outputs must not depend on it.

Every operation (one study level, one verify check) is checked against the
reference in perfbench/reference.json.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.  With
``--trace 0`` the metrics are the end-to-end figures (medians over passes).
With ``--trace 1`` untraced and traced passes alternate; the metrics are the
per-layer figures of the traced passes and the tracing overhead.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

FAMILIES = ("p-enriched", "q-bfs")


def _study(family, k, levels):
    return {"command": "study", "family": family, "k": k, "levels": levels}


def _verify(family, k, level):
    return {"command": "verify", "family": family, "k": k, "level": level}


# Why each workload was chosen, and what it stresses, is in perfbench/README.md.
WORKLOADS = {
    "study-deep": [_study("p-enriched", 4, 6), _study("p-enriched", 5, 6)],
    "study-high-degree": [_study(f, k, 4) for f in FAMILIES for k in (6, 7, 8)],
    "verify-k8": [_verify(f, 8, 6) for f in FAMILIES],
}

VERIFY_CHECKS = ("duality_residual", "unisolvency_counts", "unisolvency_rcond",
                 "space_reproduction", "quadrature_exactness", "dimension_count",
                 "c1_jump_relative")
#: verify checks whose values are errors; with the studies' finest-level
#: L2 and H2 errors they make up err_gmean
VERIFY_ERRORS = ("duality_residual", "space_reproduction", "c1_jump_relative")

#: BLAS threads in each pass.  One thread was as fast as two on the 2-core
#: machine the baseline comes from.
BLAS_THREADS = 1

#: largest accepted relative residual of a solve
RESIDUAL_BOUND = 1e-6

#: every pass must have ended this long after the run began, so that a run
#: ends within 180 s even when a pass hangs
DEADLINE_S = 170.0

LAYERS = ("elements", "mesh", "assembly", "study", "cli")
SPAN_METRICS = ("elements.element_basis", "elements.tabulate", "mesh.build_dof_map",
                "mesh.clamped_flags", "assembly.assemble", "assembly.solve",
                "assembly.evaluate_solution", "study.error_norms", "study.c1_jump",
                "study.verify", "study.run_study", "cli.main")
CALL_METRICS = ("elements.tabulate", "assembly.evaluate_solution")
COUNT_METRICS = {"assembly.cg_iterations": "count", "assembly.direct_solves": "count",
                 "assembly.dense_bytes_computed": "B", "assembly.nnz": "count",
                 "assembly.free_dofs": "count", "mesh.total_dofs": "count"}


def case_label(case: dict) -> str:
    where = (f"levels 1..{case['levels']}" if case["command"] == "study"
             else f"level {case['level']}")
    return f"{case['command']} {case['family']} k={case['k']} {where}"


# ---------------------------------------------------------------------------
# running passes


def run_pass(cases: list[dict], trace: bool, tmp: str, timeout: float) -> dict:
    threads = str(BLAS_THREADS)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    with tempfile.TemporaryDirectory(dir=tmp) as out_dir:
        spec = {"src": str(SRC), "tmp": out_dir, "trace": trace, "cases": cases}
        spawned = time.monotonic()
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
                              stdout=subprocess.PIPE, text=True, env=env, timeout=timeout,
                              check=True)
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["startup_s"] = record["start"] - spawned
    record["setup_s"] = record["setup_end"] - spawned
    record["run_s"] = record["run_end"] - record["setup_end"]
    return record


# ---------------------------------------------------------------------------
# checking outputs


def load_reference() -> dict:
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        ref = json.load(fh)
    known = {(f["family"], f["k"], f["level"], f["check"]): f for f in ref["known_failures"]}
    return {"study": ref["study"], "known": known}


def check_study(case, run, ref) -> list[tuple[str, str | None, bool]]:
    """(operation, failure reason or None, known failure) for each level."""
    key = f"{case['family']} k={case['k']}"
    rows = {r["level"]: r for r in (run["output"] or [])}
    refs = {r["level"]: r for r in ref["study"][key]}
    ops = []
    for level in range(1, case["levels"] + 1):
        row = rows.get(level)
        reason = None
        if row is None:
            reason = run["error"] or f"no output (exit code {run['rc']})"
        elif row["dim"] != row["expected_dim"]:
            reason = f"dim {row['dim']} != expected {row['expected_dim']}"
        elif not (math.isfinite(row["l2_err"]) and math.isfinite(row["h2_err"])):
            reason = "non-finite error"
        elif row["residual"] > RESIDUAL_BOUND:
            reason = f"residual {row['residual']:.3e} > {RESIDUAL_BOUND:.0e}"
        else:
            # one-sided: a more accurate result never fails
            for name in ("l2_err", "h2_err"):
                limit = refs[level][name] * (1.0 + refs[level]["tol"])
                if row[name] > limit:
                    reason = f"{name} {row[name]:.4e} > {limit:.4e}"
        ops.append((f"study {key} level {level}", reason, False))
    return ops


def check_verify(case, run, ref) -> list[tuple[str, str | None, bool]]:
    """(operation, failure reason or None, known failure) for each check."""
    checks = {c["name"]: c for c in (run["output"] or [])}
    ops = []
    for name in VERIFY_CHECKS:
        c = checks.get(name)
        known = ref["known"].get((case["family"], case["k"], case["level"], name))
        if c is None:
            reason = run["error"] or f"no output (exit code {run['rc']})"
        elif c["passed"]:
            reason = None
        elif known:
            reason = (f"value {c['value']:.4e}, recorded {known['value']:.4e}, "
                      f"threshold {known['threshold']:.0e}")
        else:
            reason = f"value {c['value']:.4e}"
        ops.append((f"verify {case['family']} k={case['k']} level {case['level']} {name}",
                    reason, bool(known) and c is not None))
    return ops


def check_pass(record, ref) -> list[tuple[str, str | None, bool]]:
    """Every operation of a pass with its failure reason, if any."""
    ops = []
    for run in record["cases"]:
        check = check_study if run["case"]["command"] == "study" else check_verify
        ops += check(run["case"], run, ref)
    return ops


def outputs_by_case(record) -> dict:
    return {case_label(r["case"]): r["output"] for r in record["cases"]}


def error_figures(record) -> tuple[list, list, list]:
    """Finest-level L2 and H2 errors of each study; error values of each verify."""
    l2, h2, verify = [], [], []
    for run in record["cases"]:
        if not run["output"]:
            continue
        if run["case"]["command"] == "study":
            l2.append(run["output"][-1]["l2_err"])
            h2.append(run["output"][-1]["h2_err"])
        else:
            verify += [c["value"] for c in run["output"] if c["name"] in VERIFY_ERRORS]
    return l2, h2, verify


def gmean(values) -> float:
    values = [v for v in values if v > 0]
    return math.exp(statistics.fmean(math.log(v) for v in values)) if values else float("nan")


# ---------------------------------------------------------------------------
# metrics


def end_to_end(passes, ops) -> dict:
    l2, h2, verify = error_figures(passes[0])
    ok = sum(reason is None for _, reason, _ in ops)
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "run_s": (statistics.median(p["run_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "ok_frac": (ok / len(ops), "1"),
        "err_gmean": (gmean(l2 + h2 + verify), "1"),
    }


def per_layer(traced, untraced) -> dict:
    def med(fn):
        return statistics.median(fn(p["trace"]) for p in traced)

    out = {
        "python.startup_s": (statistics.median(p["startup_s"] for p in traced), "s"),
        "c1rect.import_s": (statistics.median(p["import_s"] for p in traced), "s"),
    }
    for name in SPAN_METRICS:
        out[f"{name}_s"] = (med(lambda t: t["self_s"].get(name, 0.0)), "s")
    for name in CALL_METRICS:
        out[f"{name}_calls"] = (med(lambda t: t["calls"].get(name, 0)), "count")
    for name, unit in COUNT_METRICS.items():
        out[name] = (med(lambda t: t["counts"].get(name, 0)), unit)
    out["assembly.residual_max"] = (
        med(lambda t: t["maxima"].get("assembly.residual_max", 0.0)), "1")
    for layer in LAYERS:
        out[f"layer.{layer}_s"] = (med(lambda t: sum(
            s for n, s in t["self_s"].items() if n.startswith(layer + "."))), "s")
    out["unattributed_s"] = (med(lambda t: t["unattributed_s"]), "s")
    base = statistics.median(p["run_s"] for p in untraced)
    out["trace.overhead_pct"] = (
        100.0 * (statistics.median(p["run_s"] for p in traced) - base) / base, "%")
    return out


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "c1rect" / "__init__.py").is_file():
        print(f"perfbench: no c1rect sources under {SRC}", file=sys.stderr)
        return 2
    # write the bytecode once, as an installed package has it, so that
    # compiling the sources does not count as set-up time in the first pass
    compileall.compile_dir(str(SRC / "c1rect"), quiet=1)
    ref = load_reference()
    cases = WORKLOADS[args.workload]
    rng = random.Random(args.seed)

    passes = []
    began = time.monotonic()
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".perfbench-") as tmp:
        while True:
            order = rng.sample(cases, len(cases))
            traced = bool(args.trace) and len(passes) % 2 == 1
            timeout = DEADLINE_S - (time.monotonic() - began)
            passes.append(run_pass(order, traced, tmp, timeout))
            elapsed = time.monotonic() - began
            predicted = elapsed * (len(passes) + 1) / len(passes)
            if len(passes) >= 1 + args.trace and predicted > args.seconds:
                break

    checked = [check_pass(p, ref) for p in passes]
    attempted = sum(len(ops) for ops in checked)
    failed = sum(reason is not None for ops in checked for _, reason, _ in ops)
    unexpected = sorted({(op, reason) for ops in checked
                         for op, reason, known in ops if reason is not None and not known})
    first = outputs_by_case(passes[0])
    differing = sorted({label for p in passes[1:]
                        for label, out in outputs_by_case(p).items() if out != first[label]})
    correct = not unexpected and not differing

    untraced = [p for p in passes if "trace" not in p]
    traced = [p for p in passes if "trace" in p]
    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(passes, checked[0])

    mem_gib = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes "
          f"({len(traced)} traced) in {time.monotonic() - began:.1f} s; "
          f"BLAS threads {BLAS_THREADS}, cores {len(os.sched_getaffinity(0))}, "
          f"memory {mem_gib:.1f} GiB")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    if not args.trace:
        l2, h2, _ = error_figures(passes[0])
        if l2:
            print(f"  {'l2_err_gmean':34s} {gmean(l2):14.6g} 1  (finest level, over studies)")
            print(f"  {'h2_err_gmean':34s} {gmean(h2):14.6g} 1")
        print(f"  {'failed_frac':34s} {failed / attempted:14.6g} 1  "
              f"({failed} of {attempted} operations)")
        print(f"  samples per median: {len(passes)}")
    for op, reason, known in checked[0]:
        if reason is not None and known:
            print(f"  known failure: {op}: {reason}")
    for op, reason in unexpected:
        print(f"  FAILED: {op}: {reason}")
    for label in differing:
        print(f"  output differs between passes: {label}")

    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
