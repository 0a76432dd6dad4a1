"""One pass of a workload in a fresh interpreter, as a user's CLI run would be.

Usage: python3 perfbench/worker.py '<json spec>'

The spec gives the source directory, the cases in run order, a scratch
directory for the CLI's output files and whether to trace.  The pass sets up
(imports c1rect and builds every element the cases use), then runs each case
through ``c1rect.cli.main`` with ``--format json --out <file>``.  The last
line of standard output is a JSON record with the clock readings, the parsed
outputs and, when traced, the per-layer figures.  Clock readings use
``time.monotonic``, which is shared by all processes on the machine, so the
parent can measure interpreter start from the time it spawned this process.
"""

import json
import os
import resource
import sys
import time

START = time.monotonic()

# Only the parts of an output that the benchmark checks: run-dependent
# fields such as solver timings are never compared across passes.
STUDY_META_KEYS = ("method", "iterations", "residual", "free_dofs")


def case_argv(case: dict, out: str) -> list[str]:
    argv = [case["command"], "--family", case["family"], "--k", str(case["k"])]
    if case["command"] == "study":
        argv += ["--levels", str(case["levels"])]
    else:
        argv += ["--level", str(case["level"])]
    return argv + ["--format", "json", "--out", out]


def read_output(c1rect, case: dict, path: str):
    """The checked parts of a case's output file, or None if it is missing."""
    if not os.path.exists(path):
        return None
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if case["command"] == "verify":
        return [{key: c[key] for key in ("name", "passed", "value")} for c in payload]
    rows = []
    for row, meta in zip(payload["rows"], payload["meta"]["levels"]):
        rows.append({
            "level": row["level"], "dim": row["dim"],
            "expected_dim": c1rect.study.expected_dim(case["family"], case["k"], row["n"]),
            "l2_err": row["l2_err"], "h2_err": row["h2_err"],
            **{key: meta[key] for key in STUDY_META_KEYS},
        })
    return rows


def main() -> None:
    spec = json.loads(sys.argv[1])
    sys.path.insert(0, spec["src"])
    tracer = None
    if spec["trace"]:
        import tracer as tracing  # perfbench/, this script's directory
        tracer = tracing.Tracer()

    t0 = time.perf_counter()
    import c1rect
    import c1rect.cli
    import_s = time.perf_counter() - t0
    if not os.path.abspath(c1rect.__file__).startswith(os.path.abspath(spec["src"])):
        raise SystemExit(f"imported c1rect from {c1rect.__file__}, not {spec['src']}")
    main_fn = c1rect.cli.main
    if tracer is not None:
        tracer.spans.append(("c1rect.import", t0, t0 + import_s, -1))
        tracer.self_s["c1rect.import"] = import_s
        tracing.install(tracer, c1rect)
        main_fn = tracer.wrap("cli.main", main_fn)

    for family, k in dict.fromkeys((c["family"], c["k"]) for c in spec["cases"]):
        c1rect.elements.element_basis(family, k)
    setup_end = time.monotonic()

    runs = []
    for i, case in enumerate(spec["cases"]):
        out = os.path.join(spec["tmp"], f"case{i}.json")
        error = None
        try:
            rc = main_fn(case_argv(case, out))
        except Exception as exc:  # a raising call is a failed case, not a failed pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        runs.append((case, out, rc, error))
    run_end = time.monotonic()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "start": START,
        "setup_end": setup_end,
        "run_end": run_end,
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "cases": [{"case": case, "rc": rc, "error": error,
                   "output": read_output(c1rect, case, out)}
                  for case, out, rc, error in runs],
    }
    if tracer is not None:
        record["trace"] = {
            "self_s": dict(tracer.self_s), "calls": dict(tracer.calls),
            "counts": dict(tracer.counts), "maxima": tracer.maxima,
            "unattributed_s": (run_end - START) - tracer.top_level_s(),
        }
    print(json.dumps(record))


if __name__ == "__main__":
    main()
