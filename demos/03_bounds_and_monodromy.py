#!/usr/bin/env python3
"""Bounds and monodromy predicates on contrasting germs.

Three behaviors of the lowest group against its bounds:

  * the quadric-power family (no special points) hits the upper bound;
  * the three-planes germ sits strictly between the bounds until the
    costalk correction tightens the lower one;
  * x^2 z + y^2 u collapses entirely: the -id vertical monodromies kill
    every branch kernel, so validation forces the local ranks to zero and
    the concentration bound is already 0.

Polar data and characteristic-polynomial inputs ride along as plain
arithmetic predicates.
"""

import json

from vancoh import analyze, format_group, parse_configuration
from vancoh.corpus import bundled

configs = {}
for name, path in bundled():
    configs[name] = parse_configuration(json.loads(path.read_text())).configuration

print("germ                 group   lower  upper  concentration")
for name in ("quadric_power_3_2", "xyz", "xyzu", "x2z_y2u"):
    rep = analyze(configs[name])
    lower = rep.bounds.lower_lowest
    print(f"{name:20s} {format_group(rep.lowest_group):7s} "
          f"{str(lower) if lower is not None else '-':5s}  "
          f"{rep.bounds.upper_lowest:5d}  {rep.bounds.min_bound:5d}")
print()

# With no special points the inclusion into the invariants is an
# isomorphism, so the upper bound is attained:
for name in ("quadric_power_2_2", "quadric_power_3_2", "quadric_power_2_3"):
    rep = analyze(configs[name])
    assert rep.lowest_group.free_rank == rep.bounds.upper_lowest
    print(f"{name}: rank equals upper bound =", rep.bounds.upper_lowest,
          "| shortcut agrees:", rep.shortcut_agrees)
print()

# Polar bounds are direct arithmetic on supplied pairs (lambda^k, clk Betti):
doc = json.loads(bundled()[0][1].read_text())
doc["polar_data"] = [[4, 0], [2, 1]]
with_polar = parse_configuration(doc).configuration
rep = analyze(with_polar)
for k, bound in rep.bounds.polar:
    print(f"polar bound: b_(n-{k})(F) <= {bound}")
print()

# The xyz corpus file carries monodromy data: the characteristic polynomial
# (t-1)^2 on the lowest group must divide the product of the transversal
# ones, (t-1)^3, and the eigenvalue/Jordan integers satisfy their bounds.
rep = analyze(configs["xyz"])
checks = rep.monodromy
print("char poly divides transversal product:", checks.char_poly_divides)
print("eigenspace dimension bounds:", dict(checks.eigen_dims_ok))
print("jordan block bounds:", dict(checks.jordan_sizes_ok))
