"""Print digests of element data, DOF maps and level-3 systems (element
block, element slots and load), of CG's preconditioner blocks, the study rows
of the benchmark's cases, and CG study rows of two cases, to check that a
change leaves them bit-identical.

Run each checkout's own copy on its own ``src`` and compare the outputs:

    (cd <other checkout> && PYTHONPATH=src python scripts/element_digest.py) > a.txt
    PYTHONPATH=src python scripts/element_digest.py > b.txt
    diff a.txt b.txt

Digests are SHA-256 over dtype, shape and bytes; other floats print by ``repr``.
The level-3 element block is the scaled long-double block that older checkouts
stored, h^(o_m + o_n - 2) times the reference stiffness, formed here from
``element_matrix`` (A_1) in the same order, so the lines stay comparable.  It
is hashed as its exact float64 split (hi, lo): its own bytes include x87
padding, which is never initialized.
LAPACK builds differ between machines, so compare outputs from one machine.
The study rows depend on the BLAS thread count (p-enriched k=8 level 4's
L2 error moves in the third digit), so the script pins OpenBLAS, OpenMP and
MKL to one thread before numpy is imported; to compare with a checkout whose
copy does not, set ``OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1``
in the environment of both runs.
The ``precond`` line of a family hashes, for k = 4 and 8 at level 3, the
blocks that CG's preconditioner inverts, one per class of elements, in the
order of the class codes; checkouts before the per-class sum print none.
Element data is hashed straight from the ``nodal`` coefficient stacks.
Older checkouts, which kept each basis as a list of polynomial objects,
hash the same zero-padded stack in their own copy, so a ``git archive`` of
one and this copy print identical lines for identical data.
"""

import hashlib
import os

os.environ.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")

import numpy as np

from c1rect import (Family, StudyConfig, assemble, assembly, bell_nodal_basis,
                    build_dof_map, build_mesh, clamped_flags, element_basis,
                    exact_solution, run_study, verify)

DOF_MAP_FIELDS = ("local_to_global", "is_boundary", "kind_code", "points")


def digest(*arrays) -> str:
    sha = hashlib.sha256()
    for a in map(np.ascontiguousarray, arrays):
        sha.update(f"{a.dtype.str}{a.shape}".encode())
        sha.update(a.tobytes())
    return sha.hexdigest()


def element_digest(eb) -> str:
    table = digest(np.array([d.kind.value for d in eb.dofs]),
                   np.array([d.point for d in eb.dofs]))
    return f"dofs {table} nodal {digest(eb.nodal)} rcond {eb.rcond!r}"


for k in range(4, 9):
    print(f"bell k={k}", element_digest(bell_nodal_basis(k)))
for family in Family:
    for k in range(4, 9):
        eb = element_basis(family, k)
        layout = [list(eb.vertex_dofs(v)) for v in range(4)]
        layout += [list(eb.edge_dofs(e)) for e in range(4)] + [list(eb.interior_dofs())]
        print(f"{family.value} k={k}", element_digest(eb),
              "layout", digest(*(np.array(ids, dtype=np.int64) for ids in layout)))
        for level in range(1, (6 if k <= 6 else 5)):
            mesh = build_mesh(level)
            dm = clamped_flags(build_dof_map(mesh, eb))
            print(f"  level {level} dof map",
                  digest(*(getattr(dm, name) for name in DOF_MAP_FIELDS)))
            if level == 3:
                system = assemble(dm, exact_solution().f)
                scale = mesh.h ** eb.deriv_orders.astype(float)
                block = system.element_matrix * np.outer(scale, scale) / mesh.h**2
                hi = block.astype(float)
                lo = (block - hi).astype(float)
                print("  level 3 system", digest(hi, lo, system.element_slots, system.rhs))
        print("  verify", [(c.name, repr(c.value)) for c in verify(family, k, 3)])


def preconditioner_blocks(system) -> list:
    """The blocks that CG's preconditioner hands to ``_inverse_factor``."""
    blocks, inverse_factor = [], assembly._inverse_factor
    assembly._inverse_factor = lambda a: blocks.append(a.copy()) or inverse_factor(a)
    try:
        assembly._element_block_preconditioner(system, system.element_matrix.astype(float))
    finally:
        assembly._inverse_factor = inverse_factor
    return blocks


for family in Family:
    systems = [assemble(clamped_flags(build_dof_map(build_mesh(3), element_basis(family, k))),
                        exact_solution().f) for k in (4, 8)]
    print(f"precond {family.value} k=4,8 level 3",
          digest(*(b for system in systems for b in preconditioner_blocks(system))))

# p-enriched k=4, 5 to level 6 and both families k=6..8 to level 4, and
# CG rows for p-enriched k=4 to level 5 and q-bfs k=8 to level 3
STUDIES = [(Family.ENRICHED_P, k, 6, "direct") for k in (4, 5)]
STUDIES += [(family, k, 4, "direct") for family in Family for k in (6, 7, 8)]
STUDIES += [(Family.ENRICHED_P, 4, 5, "cg"), (Family.BFS_Q, 8, 3, "cg")]
for family, k, levels, solver in STUDIES:
    report = run_study(StudyConfig(family=family, k=k, max_level=levels, solver=solver))
    label = "study" if solver == "direct" else f"study {solver}"
    for row, meta in zip(report.rows, report.meta["levels"]):
        print(f"{label} {family.value} k={k} level {row.level}", repr(row.l2_err),
              repr(row.h2_err), repr(meta["residual"]), meta["fill"], meta["iterations"])
