"""Mixed Poisson with the stable H(div) x L2 pairings.

The flux space of order r is paired with the discontinuous space of
usage order r - 1 (SminusDiv with DPC, RTCF/NCF with DQ).  The saddle
system [[M, B^T], [B, 0]] is solved by augmented-Lagrangian Uzawa steps
on one Cholesky factor of K = M + gamma B^T W^-1 B; the reported error is
the L2 error of the scalar solution, converging at rate r for both families.

A practical comparison: the 3D trimmed pair at order r + 1 costs about
as many DOFs as the tensor pair at order r but delivers a smaller error.
"""

from trimfem.experiments import format_rows, run_mixed_poisson

for family, label in (("S", "trimmed pair"), ("Q", "tensor pair")):
    rows = run_mixed_poisson(2, family, 2, [8, 16, 32])
    print(f"\nmixed Poisson, 2D, {label}, order 2")
    print(format_rows(rows))

print("\n3D comparison at matched cost (order 3 trimmed vs order 2 tensor):")
rows_s = run_mixed_poisson(3, "S", 3, [2, 4])
rows_q = run_mixed_poisson(3, "Q", 2, [2, 4])
print("trimmed order 3")
print(format_rows(rows_s))
print("tensor order 2")
print(format_rows(rows_q))
for s, q in zip(rows_s, rows_q):
    print(f"  N={round(1/s.h):>2}: trimmed {s.dofs} DOFs / error {s.error:.3e}  "
          f"vs tensor {q.dofs} DOFs / error {q.error:.3e}")
