#!/usr/bin/env python3
"""Full walkthrough on the three-planes germ (f = xyz on C^4).

The singular locus consists of three 2-planes meeting along a line.  A
generic hyperplane slice turns it into three lines through one triple
point.  Each line has transversal type A1 (transversal rank 1), every
vertical monodromy is trivial, and the local Milnor fiber at the triple
point is a torus, so its lower cohomology has rank 2 and injects into the
three branch kernels as the sum-zero sublattice.

We build that configuration in code and walk through the computation.
"""

from vancoh import (Branch, CurveComponent, SliceConfiguration, SpecialPoint, analyze,
                    format_group, matrix, validate)

identity1 = matrix([[1]])

components = tuple(
    CurveComponent(id=name, genus=0, transversal_rank=1,
                   loop_monodromies=(identity1,))
    for name in ("S1", "S2", "S3"))

triple_point = SpecialPoint(
    id="q1",
    branches=tuple(Branch(name, identity1) for name in ("S1", "S2", "S3")),
    fq_rank_low=2,           # rank H^1 of the torus
    fq_rank_high=1,          # rank H^2 of the torus
    iota=matrix([[1, 0], [-1, 1], [0, -1]]),   # sum-zero image in Z^3
    costalk_rank=1,
)

cfg = SliceConfiguration(
    n=3, original_n=3, original_s=2,
    components=components,
    special_points=(triple_point,),
    isolated_points=(),
)

print("violations:", validate(cfg))
# Slicing leaves the ambient dimension m = original_n - original_s + 2, and
# the lowest group sits in degree original_n - original_s of the unsliced germ.
print("degree bookkeeping (m, lowest degree):",
      (cfg.original_n - cfg.original_s + 2, cfg.original_n - cfg.original_s))
print()

# One pass computes everything.  Per-component pieces: invariants of the
# vertical monodromy, the cokernel, and the Euler number of the punctured tube.
rep = analyze(cfg)
for cc in rep.components:
    print(f"{cc.component_id}: invariants rank {cc.invariants.rank}, "
          f"coker free rank {cc.coker.free_rank}, euler {cc.euler}")
print()

# The comparison map j: the first three columns are the diagonal inclusion
# of the component invariants, the last two are minus the torus injection.
print("j matrix (3x5):")
for row in rep.j_matrix.tolist():
    print("   ", row)
print()

print("lowest vanishing group:", format_group(rep.lowest_group),
      f"(degree {rep.lowest_degree})")
print("interaction rank vs branch-free contributions:",
      rep.g_rank, list(rep.i0_contribution))
print("euler characteristic of the vanishing neighborhood:", rep.euler_total)
six = rep.six_term
print("six-term ranks (lowest, domain, codomain, top, middle, branch coker):",
      (six.lowest_pair, six.domain, six.codomain, six.top_pair, six.middle,
       six.branch_coker))
print("bounds: lower", rep.bounds.lower_lowest, "<= rank",
      rep.lowest_group.free_rank, "<= upper", rep.bounds.upper_lowest)
print("next Betti number bound:", rep.bounds.betti_high)
