"""Memory pins: no stage of an assembled SPD level holds more than a few
matrices' worth of temporaries.

Each stage runs under tracemalloc, which numpy reports its arrays to, and
its traced peak (the result included) is compared with the bytes of the
matrix it works on: 2D S-_1 Poisson on N=128 under diag1, 16,641 unknowns
and 144,153 stored entries (1.71 MiB).  Every bound is the stated multiple
of the matrix's bytes, 10-20% above the ratio measured with numpy 2.4
and scipy 1.17; the code before these bounds measured the second ratio.
The allocations do not depend on timing, so the pins are deterministic.
"""

import tracemalloc

import numpy as np
import pytest

from trimfem import multifrontal, solve
from trimfem.assemble import apply_dirichlet, assemble_bilinear, assemble_load, l2_error
from trimfem.mesh import boundary_dofs, build_box_mesh, global_numbering
from trimfem.refelem import element_by_name


def _traced_peak(stage):
    """Bytes of the traced peak while `stage()` runs."""
    tracemalloc.start()
    try:
        stage()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _field(x):
    return np.sin(np.pi * x[..., 0]) * np.sin(np.pi * x[..., 1])


@pytest.fixture(scope="module")
def level():
    mesh = build_box_mesh(2, 128)
    dofmap = global_numbering(mesh, element_by_name("S", 2, 1))
    dofmap.lattice  # the numbering's own arrays are no stage's temporaries
    system = assemble_bilinear(dofmap, dofmap, "GradGrad")
    system = apply_dirichlet(system, boundary_dofs(dofmap), "diag1")
    A = system.matrix
    assert A.nnz == 144_153
    return dofmap, system, A.data.nbytes + A.indices.nbytes + A.indptr.nbytes


@pytest.mark.parametrize("stage, bound", [
    ("assemble_bilinear", 3.1),  # measured 2.78, before 4.67
    ("assemble_load", 0.4),  # measured 0.34, before 3.28
    ("l2_error", 0.4),  # measured 0.34, before 6.13
    ("_check_symmetric", 1.2),  # measured 1.08, before 2.97
    ("multifrontal.factor", 1.95),  # measured 1.77 (1.01 is the factor), before 2.77
])
def test_each_stage_peaks_below_a_multiple_of_the_matrix(level, stage, bound):
    dofmap, system, matrix_bytes = level
    x = np.random.default_rng(0).standard_normal(dofmap.total)
    run = {
        "assemble_bilinear": lambda: assemble_bilinear(dofmap, dofmap, "GradGrad"),
        "assemble_load": lambda: assemble_load(dofmap, _field),
        "l2_error": lambda: l2_error(dofmap, x, _field),
        "_check_symmetric": lambda: solve._check_symmetric(system.matrix, "symmetry check"),
        "multifrontal.factor": lambda: multifrontal.factor(system.matrix, system.lattice),
    }[stage]
    assert _traced_peak(run) <= bound * matrix_bytes


def test_instance_rows_are_verified_in_slices():
    # on a strip of 512 x 4 cells one leaf class of many instances holds
    # most rows, so gathering all of them at once would set the peak:
    # measured 1.42, 2.91 with one slice per class, 4.79 before
    mesh = build_box_mesh(2, (512, 4))
    dofmap = global_numbering(mesh, element_by_name("S", 2, 1))
    system = assemble_bilinear(dofmap, dofmap, "GradGrad")
    system = apply_dirichlet(system, boundary_dofs(dofmap), "diag1")
    A, lattice = system.matrix, system.lattice
    matrix_bytes = A.data.nbytes + A.indices.nbytes + A.indptr.nbytes
    assert _traced_peak(lambda: multifrontal.factor(A, lattice)) <= 1.6 * matrix_bytes
