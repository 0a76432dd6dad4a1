"""Command line interface: convergence studies and invariant verification."""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict

from . import assembly, study
from .elements import Family
from .mesh import MAX_LEVEL


def _positive(kind, most=math.inf):
    """argparse type: a finite number of ``kind`` greater than zero, at most ``most``."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        if value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {text}")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's messages
    return parse


def _out_path(text: str) -> str:
    """argparse type: a file path in an existing directory."""
    folder = os.path.dirname(text) or "."
    if not os.path.isdir(folder):
        raise argparse.ArgumentTypeError(f"directory {folder} does not exist")
    return text


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="c1rect",
        description="C1 rectangular elements for the clamped plate problem",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    families = [f.value for f in Family]

    p_study = sub.add_parser("study", help="run a convergence study")
    p_study.add_argument("--family", choices=families, required=True)
    p_study.add_argument("--k", type=int, choices=range(4, 9), required=True)
    p_study.add_argument("--levels", type=_positive(int, MAX_LEVEL), default=None,
                         help="finest refinement level (default 6 for k<=5, 4 above)")
    p_study.add_argument("--tol", type=_positive(float), default=1e-13,
                         help="relative residual for the iterative solver")
    p_study.add_argument("--solver", choices=assembly.SOLVER_METHODS, default="direct")
    p_study.add_argument("--format", choices=["table", "csv", "json"],
                         default="table")
    p_study.add_argument("--out", type=_out_path, default=None,
                         help="write output to a file")

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.add_argument("--family", choices=families, required=True)
    p_verify.add_argument("--k", type=int, choices=range(4, 9), required=True)
    p_verify.add_argument("--level", type=_positive(int, MAX_LEVEL), default=2)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out", type=_out_path, default=None)
    return parser


def _emit(text: str, out: str | None) -> int:
    """Print ``text`` or write it to ``out``; 2 if that fails, else 0."""
    if out is None:
        print(text)
        return 0
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    except OSError as err:
        print(f"c1rect: cannot write {out}: {err.strerror or err}", file=sys.stderr)
        return 2
    return 0


def _run_study(args) -> int:
    config = study.StudyConfig(
        family=Family(args.family),
        k=args.k,
        max_level=args.levels if args.levels is not None
        else study.default_max_level(args.k),
        rel_tol=args.tol,
        solver=args.solver,
    )
    try:
        report = study.run_study(config)
    except (assembly.NotConverged, assembly.NotSPD) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2
    render = {"table": study.format_table, "csv": study.report_csv,
              "json": study.report_json}[args.format]
    return _emit(render(report), args.out)


def _run_verify(args) -> int:
    checks = study.verify(Family(args.family), args.k, args.level)
    if args.format == "json":
        text = json.dumps([asdict(c) for c in checks], indent=2)
    else:
        text = "\n".join(
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
            f"value={c.value:.3e} threshold={c.threshold:.3e}"
            + (f" ({c.note})" if c.note else "")
            for c in checks
        )
    return _emit(text, args.out) or (0 if all(c.passed for c in checks) else 1)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run_study(args) if args.command == "study" else _run_verify(args)
    except MemoryError as err:
        print(f"c1rect: out of memory ({str(err) or 'allocation failed'})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
