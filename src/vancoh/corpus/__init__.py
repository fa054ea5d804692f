"""Bundled regression corpus: classical germs with known lowest groups.

Each entry is a configuration file plus the expected lowest group, the
rank ledger of the comparison map (domain, codomain, kernel) and the
invariant upper bound.
"""

from __future__ import annotations

EXPECTED: dict[str, dict] = {
    # f = xyz on C^4: three planes meeting along a line; sliced to three
    # lines through one triple point; the lowest group is Z^2.
    "xyz": {"group": "Z^2", "domain": 5, "codomain": 3, "kernel": 2, "upper": 3},
    # f = xyzu on C^4: six planes, four triple lines; sliced to six lines
    # and four triple points; the lowest group is Z^3.
    "xyzu": {"group": "Z^3", "domain": 14, "codomain": 12, "kernel": 3, "upper": 6},
    # f = x^2 z + y^2 u on C^4: one sliced line with two special points of
    # local monodromy -id; everything collapses and the group is trivial.
    "x2z_y2u": {"group": "0", "domain": 0, "codomain": 0, "kernel": 0, "upper": 0},
    # f = x^p + (y^2+z^2+u^2)^q on C^4: no special points; the group is the
    # full invariant module of rank (p-1)(q-1).
    "quadric_power_2_2": {"group": "Z^1", "domain": 1, "codomain": 0, "kernel": 1, "upper": 1},
    "quadric_power_3_2": {"group": "Z^2", "domain": 2, "codomain": 0, "kernel": 2, "upper": 2},
    "quadric_power_2_3": {"group": "Z^2", "domain": 2, "codomain": 0, "kernel": 2, "upper": 2},
}


def bundled():
    """(name, path) pairs of the corpus files, in their canonical order.

    `importlib.resources` is imported here, not with the module: only the
    corpus command reads the files, and the import is a large share of the
    command line's start-up."""
    from importlib import resources

    root = resources.files(__package__)
    return [(name, root / f"{name}.json") for name in EXPECTED]
