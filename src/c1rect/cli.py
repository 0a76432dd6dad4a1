"""Command line interface: convergence studies and invariant verification."""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict

from . import assembly, study
from .elements import Family


def _positive(kind):
    """argparse type: a finite number of ``kind`` greater than zero."""
    def parse(text: str):
        value = kind(text)
        if not (math.isfinite(value) and value > 0):
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    parse.__name__ = kind.__name__  # names the type in argparse's messages
    return parse


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
    p_study.add_argument("--levels", type=_positive(int), default=None,
                         help="finest refinement level (default 6 for k<=5, 4 above)")
    p_study.add_argument("--tol", type=_positive(float), default=1e-13,
                         help="relative residual for the iterative solver")
    p_study.add_argument("--solver", choices=assembly.SOLVER_METHODS, default="direct")
    p_study.add_argument("--format", choices=["table", "csv", "json"],
                         default="table")
    p_study.add_argument("--out", default=None, help="write output to a file")

    p_verify = sub.add_parser("verify", help="run the invariant checks")
    p_verify.add_argument("--family", choices=families, required=True)
    p_verify.add_argument("--k", type=int, choices=range(4, 9), required=True)
    p_verify.add_argument("--level", type=_positive(int), default=2)
    p_verify.add_argument("--format", choices=["text", "json"], default="text")
    p_verify.add_argument("--out", default=None)
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        print(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")


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
    if args.format == "table":
        _emit(study.format_table(report), args.out)
    elif args.format == "csv":
        _emit(study.report_csv(report), args.out)
    else:
        _emit(study.report_json(report), args.out)
    return 0


def _run_verify(args) -> int:
    checks = study.verify(Family(args.family), args.k, args.level)
    if args.format == "json":
        _emit(json.dumps([asdict(c) for c in checks], indent=2), args.out)
    else:
        lines = [
            f"{'PASS' if c.passed else 'FAIL'} {c.name}: "
            f"value={c.value:.3e} threshold={c.threshold:.3e}"
            + (f" ({c.note})" if c.note else "")
            for c in checks
        ]
        _emit("\n".join(lines), args.out)
    return 0 if all(c.passed for c in checks) else 1


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "study":
        return _run_study(args)
    return _run_verify(args)


if __name__ == "__main__":
    sys.exit(main())
