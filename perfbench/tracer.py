"""Spans and counters recorded around calls into c1rect, from outside the package.

A wrapped function records one span per call (name, start, end, parent span),
except the per-point functions, which only add up time and call count.  Self
time is a call's duration minus the time of the wrapped calls made inside it.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.maxima: dict[str, float] = {}
        self._stack: list[list] = []  # [child seconds, span index] per open call

    def wrap(self, name, fn, per_point=False, on_result=None):
        """Return ``fn`` wrapped to record ``name``.

        ``on_result(tracer, args, result)`` records counts taken from a call.
        """
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0, -1]
            if not per_point:
                frame[1] = len(self.spans)
                parent = stack[-1][1] if stack else -1
                self.spans.append((name, 0.0, 0.0, parent))
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                dt = t1 - t0
                if stack:
                    stack[-1][0] += dt
                self.self_s[name] += dt - frame[0]
                self.calls[name] += 1
                if not per_point:
                    self.spans[frame[1]] = (name, t0, t1, self.spans[frame[1]][3])
            if on_result is not None:
                on_result(self, args, result)
            return result

        return traced

    def count(self, name: str, n: float) -> None:
        self.counts[name] += n

    def maximum(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima.get(name, value), value)

    def top_level_s(self) -> float:
        """Time covered by spans that have no parent span."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def _count_solve(tracer, args, result):
    system = args[0]
    if result.method == "cg":
        tracer.count("assembly.cg_iterations", result.iterations)
    elif result.method == "direct":
        tracer.count("assembly.direct_solves", 1)
        tracer.count("assembly.dense_bytes_computed", 8 * system.n_free ** 2)
    tracer.maximum("assembly.residual_max", result.residual)


def _count_assemble(tracer, args, result):
    tracer.count("assembly.nnz", result.matrix.nnz)
    tracer.count("assembly.free_dofs", result.n_free)


def _count_dof_map(tracer, args, result):
    tracer.count("mesh.total_dofs", result.total)


def install(tracer: Tracer, c1rect) -> None:
    """Wrap the public functions at the module attributes the package calls them through."""
    study, assembly, elements = c1rect.study, c1rect.assembly, c1rect.elements

    element_basis = tracer.wrap("elements.element_basis", elements.element_basis)
    elements.element_basis = element_basis      # setup, unisolvency_report
    study.element_basis = element_basis         # run_study, verify
    elements.ElementBasis.tabulate = tracer.wrap(
        "elements.tabulate", elements.ElementBasis.tabulate, per_point=True)
    study.unisolvency_report = tracer.wrap(
        "elements.unisolvency_report", study.unisolvency_report)

    study.build_mesh = tracer.wrap("mesh.build_mesh", study.build_mesh)
    study.build_dof_map = tracer.wrap("mesh.build_dof_map", study.build_dof_map,
                                      on_result=_count_dof_map)
    study.clamped_flags = tracer.wrap("mesh.clamped_flags", study.clamped_flags)

    assembly.assemble = tracer.wrap("assembly.assemble", assembly.assemble,
                                    on_result=_count_assemble)
    assembly.solve = tracer.wrap("assembly.solve", assembly.solve,
                                 on_result=_count_solve)
    assembly.evaluate_solution = tracer.wrap(
        "assembly.evaluate_solution", assembly.evaluate_solution, per_point=True)

    study.error_norms = tracer.wrap("study.error_norms", study.error_norms)
    study.c1_jump = tracer.wrap("study.c1_jump", study.c1_jump)
    study.run_study = tracer.wrap("study.run_study", study.run_study)   # from cli
    study.verify = tracer.wrap("study.verify", study.verify)            # from cli
