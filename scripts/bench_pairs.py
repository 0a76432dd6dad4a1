"""Alternating pairs of benchmark runs: a parent revision against the working tree.

    python scripts/bench_pairs.py <label> [--parent HEAD] [--pairs 10]
                                  [--workload NAME ...] [--seed 1]
    python scripts/bench_pairs.py --summarize BENCH_<label>.json

Extracts ``git archive <parent>`` into a temporary directory and runs each
side's own, unmodified ``perfbench/run.py`` on its own sources, one run at a
time: pair p runs every workload (all of ``BENCHMARK.json``'s by default)
on both sides, the parent first on even pairs and the working tree first on
odd ones, so that drift of the machine between runs falls on both sides
alike.  It writes ``BENCH_<label>.json`` at the repository root in the
format of the earlier files: ``label``, ``command``, ``seed``, ``seconds``,
``machine``, ``revisions`` (the parent's commit and ``measured_src_tree``,
the git tree id of the working tree's ``src/``, which equals
``git rev-parse <commit>:src`` of a commit that leaves ``src/`` as it ran),
``note`` and ``runs`` (per run its workload, side, pair, whether it ran
first, the run's first output line as ``summary`` and its last, JSON, line
as ``result``).

For every workload and end-to-end metric of ``BENCHMARK.json`` it then
prints both sides' medians, the change / parent ratio, the parent's
quartile spread and in how many pairs the change is better.  A gain is
resolved when at least ten pairs ran, the change is better in at least nine
tenths of them and its median beats the parent's by more than the parent's
quartile spread.  A metric whose change median is worse than the parent's
by more than its ``bound``, relative to the parent's median, is marked as
beyond its bound, and each workload ends with whether the no-regression
rule holds: no metric beyond its bound.  ``--summarize`` prints the same
table for an existing file, skipping a workload without a complete pair.  A
run lasts ``BENCHMARK.json``'s ``run_seconds``, so the whole takes about
2 x pairs x workloads x run_seconds.  Not part of the test suite.
"""

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NOTE = ("parent and change alternate, the parent first on even pairs; each entry's "
        "result is the run's last JSON line, unmodified, and its summary the run's "
        "machine line. measured_src_tree is the git tree id of the src/ directory the "
        "change side ran (git rev-parse <commit>:src of the commit that adds this file, "
        "if src/ did not change after the runs).")


def git(*args: str, env=None) -> bytes:
    return subprocess.run(["git", *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          check=True).stdout


def src_tree() -> str:
    """Tree id of the working tree's ``src/``, from a scratch index."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": str(Path(tmp, "index"))}
        git("read-tree", "--empty", env=env)
        git("add", "-A", "src", env=env)
        return git("write-tree", "--prefix=src/", env=env).decode().strip()


def machine(summary: str) -> str:
    import numpy
    cpu = platform.processor()
    try:
        cpu = next(line.split(":", 1)[1].strip()
                   for line in Path("/proc/cpuinfo").read_text().splitlines()
                   if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return (f"{summary.split('; ', 1)[-1]}; {cpu}; "
            f"Python {platform.python_version()}, numpy {numpy.__version__}")


def run(checkout: Path, workload: str, seed: int, seconds: int) -> tuple[str, dict]:
    """One ``perfbench/run.py`` run of ``checkout``: its first and last lines."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True)
    if done.returncode:
        sys.exit(f"{checkout}: perfbench/run.py --workload {workload} exited "
                 f"{done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    return lines[0], json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(data: dict, metrics: list[dict]) -> None:
    runs = data["runs"]
    for workload in dict.fromkeys(r["workload"] for r in runs):
        pairs = {}
        for r in runs:
            if r["workload"] == workload:
                pairs.setdefault(r["pair"], {})[r["side"]] = r["result"]
        pairs = [p for p in pairs.values() if len(p) == 2]
        if not pairs:
            print(f"{workload}: 0 pairs")
            continue
        correct = all(s["correct"] for p in pairs for s in p.values())
        print(f"{workload}: {len(pairs)} pairs, all correct: {correct}")
        beyond = []
        for metric in metrics:
            name, sign = metric["name"], 1 if metric["better"] == "lower" else -1
            parent = [p["parent"]["metrics"][name]["value"] for p in pairs]
            change = [p["change"]["metrics"][name]["value"] for p in pairs]
            q1, med, q3 = quartiles(parent)
            new = statistics.median(change)
            wins = sum(sign * (c - p) < 0 for p, c in zip(parent, change))
            resolved = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
                        and sign * (med - new) > q3 - q1)
            bound = metric["bound"]
            worse = sign * (new - med) > bound * abs(med)
            if worse:
                beyond.append(name)
            ratio = f"{new / med:.4f}" if med else "-"
            print(f"  {name:12s} parent {med:.6g}  change {new:.6g}  ratio {ratio}  "
                  f"parent spread {q3 - q1:.3g}  change better in {wins} of {len(pairs)}"
                  f"{'  (resolved gain)' if resolved else ''}"
                  f"{f'  (worse beyond its bound {bound})' if worse else ''}")
        print(f"  no-regression rule: {'holds' if not beyond else 'broken by ' + ', '.join(beyond)}")


def main() -> None:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("label", nargs="?", help="writes BENCH_<label>.json")
    parser.add_argument("--parent", default="HEAD", help="revision to compare against")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--workload", action="append",
                        choices=[w["name"] for w in benchmark["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--summarize", metavar="FILE", help="only print FILE's table")
    args = parser.parse_args()
    if args.summarize:
        summarize(json.loads(Path(args.summarize).read_text()), benchmark["end_to_end"])
        return
    if not args.label or args.pairs < 1:
        parser.error("a label and a positive --pairs are required")
    out = ROOT / f"BENCH_{args.label}.json"
    parent = git("rev-parse", "--verify", f"{args.parent}^{{commit}}").decode().strip()
    if subprocess.run(["git", "diff", "--quiet", parent, "--", "perfbench"], cwd=ROOT).returncode:
        print(f"warning: perfbench/ differs from {parent[:12]}; each side runs its own",
              file=sys.stderr)
    workloads = args.workload or [w["name"] for w in benchmark["workloads"]]
    seconds = benchmark["run_seconds"]
    data = {
        "label": args.label,
        "command": f"python3 perfbench/run.py --workload <workload> --seed {args.seed} "
                   f"--seconds {seconds} --trace 0",
        "seed": args.seed, "seconds": seconds, "machine": None,
        "revisions": {"parent": parent, "measured_src_tree": src_tree()},
        "note": NOTE, "runs": [],
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        archive = tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", parent)))
        archive.extractall(tmp, filter="data")
        sides = {"parent": Path(tmp), "change": ROOT}
        for pair in range(args.pairs):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for i, side in enumerate(order):
                    print(f"pair {pair}, {workload}, {side}", file=sys.stderr, flush=True)
                    summary, result = run(sides[side], workload, args.seed, seconds)
                    data["machine"] = data["machine"] or machine(summary)
                    data["runs"].append({"workload": workload, "side": side, "pair": pair,
                                         "ran_first": i == 0, "summary": summary,
                                         "result": result})
                    out.write_text(json.dumps(data, indent=1) + "\n")
    summarize(data, benchmark["end_to_end"])


if __name__ == "__main__":
    main()
