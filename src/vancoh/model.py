"""Data model for the sliced singular-locus configuration.

A configuration describes, after iterated generic hyperplane slicing down to
a two-dimensional singular locus: the curve components of the sliced locus
(with genus, transversal rank and vertical monodromy generators), the
special points where one-dimensional strata meet the curve (with local
branches, local Milnor-fiber Betti ranks and the injection into the branch
kernels), and the isolated singular points of the slice.

Configurations are immutable; `validate` returns violations as data.
"""

from __future__ import annotations

from collections import Counter
from typing import NamedTuple

from . import linalg
from .linalg import IntegerMatrix, Submodule
from .polynomial import IntPolynomial


class Branch(NamedTuple):
    """Local branch of a curve component at a special point."""

    component_id: str
    monodromy: IntegerMatrix


class CurveComponent(NamedTuple):
    """Irreducible curve of the sliced locus.

    `transversal_rank` is the rank of the middle cohomology of the
    transversal Milnor fiber; `loop_monodromies` are the user's matrices for
    the vertical monodromy representation, one per generating loop
    (2*genus + total branch count, enforced at configuration level).
    """

    id: str
    genus: int
    transversal_rank: int
    loop_monodromies: tuple[IntegerMatrix, ...]


class SpecialPoint(NamedTuple):
    """Intersection point of the sliced curve with a 1-dimensional stratum.

    `iota` is the matrix of the injection of the local Milnor fiber's lower
    cohomology into the direct sum of branch kernels, written in the
    engine's canonical Hermite bases of ker(monodromy - id), branch blocks
    in declaration order.
    """

    id: str
    branches: tuple[Branch, ...]
    fq_rank_low: int
    fq_rank_high: int
    iota: IntegerMatrix
    costalk_rank: int | None = None


class IsolatedPoint(NamedTuple):
    id: str
    milnor_number: int


class EigenvalueData(NamedTuple):
    """Per-eigenvalue integers for the monodromy predicates (label is opaque)."""

    eigenvalue: str
    total: int
    components: tuple[int, ...]


class MonodromyData(NamedTuple):
    char_poly: IntPolynomial
    component_char_polys: tuple[IntPolynomial, ...]
    eigen_dims: tuple[EigenvalueData, ...] = ()
    jordan_sizes: tuple[EigenvalueData, ...] = ()


class SliceConfiguration(NamedTuple):
    """Complete validated input; root of every engine computation."""

    n: int
    original_n: int
    original_s: int
    components: tuple[CurveComponent, ...]
    special_points: tuple[SpecialPoint, ...]
    isolated_points: tuple[IsolatedPoint, ...]
    polar_data: tuple[tuple[int, int], ...] | None = None
    monodromy_data: MonodromyData | None = None


class Violation(NamedTuple):
    """One violated invariant: machine-readable code plus the offending id."""

    code: str
    subject: str
    detail: str = ""


# A special point's branch kernels and iota echelon from validation; read, never changed.
PointRecord = tuple[list[Submodule], list[tuple[int, list[int]]]]


def branch_kernel(b: Branch) -> Submodule:
    """Kernel of (monodromy - id), in canonical Hermite basis.

    This basis is the coordinate system for the corresponding iota rows.
    """
    return linalg.kernel(b.monodromy.shifted(-1))


def _check_monodromy(m: IntegerMatrix, size: int, subject: str, kind: str,
                     out: list[Violation], unimodular: dict[IntegerMatrix, bool]) -> bool:
    """Append the monodromy's violations to `out`; True when it has none.
    Unimodularity is read from, or added to, the call's `unimodular` table."""
    if m.rows != size or m.cols != size:
        out.append(Violation(f"{kind}-shape", subject,
                             f"expected {size}x{size}, got {m.rows}x{m.cols}"))
        return False
    ok = unimodular.get(m)
    if ok is None:
        ok = unimodular[m] = linalg.is_unimodular(m)
    if not ok:
        out.append(Violation(f"{kind}-not-unimodular", subject,
                             "monodromy must be an automorphism (determinant +-1)"))
    return ok


def validate(cfg: SliceConfiguration) -> list[Violation]:
    """Every violated invariant of the configuration, in deterministic order.

    An empty list means the configuration is valid; a valid configuration is
    safe input for every engine operation.
    """
    return _validate(cfg)[0]


def _validate(cfg: SliceConfiguration) -> tuple[list[Violation], list[PointRecord]]:
    """Violations plus one (branch kernels, iota echelon) record for each
    special point that passes every check, computed while checking iota.

    The kernels are listed in branch declaration order.  Each distinct
    monodromy is checked for unimodularity, and each distinct branch
    monodromy's kernel built, once per call; shapes, which depend on the
    component, and faults are checked and reported at each occurrence.
    Injectivity of iota is read off its column echelon pivots, which are
    handed on as they are: back-normalising them here would cost the
    validate path, which never reads them, and `engine._build_j` finishes
    copies of them into j's point-block basis.  The records are read and
    never changed.  Without violations there is one record per point.
    """
    out: list[Violation] = []
    points: list[PointRecord] = []
    unimodular: dict[IntegerMatrix, bool] = {}
    kernels: dict[IntegerMatrix, Submodule] = {}

    if cfg.original_s < 2:
        out.append(Violation("dimension-range", "original_s", "original_s must be >= 2"))
    if cfg.original_n <= cfg.original_s:
        out.append(Violation("dimension-range", "original_n", "original_n must exceed original_s"))
    if cfg.n != cfg.original_n - cfg.original_s + 2:
        out.append(Violation("dimension-reduction", "n",
                             f"n must equal original_n - original_s + 2 = "
                             f"{cfg.original_n - cfg.original_s + 2}, got {cfg.n}"))
    if cfg.n < 3:
        out.append(Violation("dimension-range", "n", "reduced dimension n must be >= 3"))

    seen: set[str] = set()
    for ident in ([c.id for c in cfg.components]
                  + [q.id for q in cfg.special_points]
                  + [r.id for r in cfg.isolated_points]):
        if ident in seen:
            out.append(Violation("duplicate-id", ident, "identifiers must be unique"))
        seen.add(ident)

    # a repeated component id has no rank to check its branches against
    rank_of: dict[str, int] = {}
    for c in cfg.components:
        rank_of[c.id] = 0 if c.id in rank_of else c.transversal_rank
    branches = Counter(b.component_id for q in cfg.special_points for b in q.branches)

    for c in cfg.components:
        if c.genus < 0:
            out.append(Violation("negative-genus", c.id, "genus must be nonnegative"))
        if c.transversal_rank < 1:
            out.append(Violation("transversal-rank", c.id, "transversal rank must be positive"))
            continue
        for w, nu in enumerate(c.loop_monodromies):
            _check_monodromy(nu, c.transversal_rank, f"{c.id}[loop {w}]", "loop", out,
                             unimodular)
        expected = 2 * c.genus + branches[c.id]
        # a negative genus or a repeated id gives no loop count to compare against
        if c.genus >= 0 and rank_of[c.id] and len(c.loop_monodromies) != expected:
            out.append(Violation("loop-count", c.id,
                                 f"expected 2*genus + branches = {expected} loop monodromies, "
                                 f"got {len(c.loop_monodromies)}"))

    for q in cfg.special_points:
        if q.fq_rank_low < 0 or q.fq_rank_high < 0:
            out.append(Violation("negative-rank", q.id, "Betti ranks must be nonnegative"))
            continue
        if q.costalk_rank is not None and q.costalk_rank < 0:
            out.append(Violation("negative-rank", q.id, "costalk rank must be nonnegative"))
        point_kernels: list[Submodule] = []
        for k, b in enumerate(q.branches):
            rank = rank_of.get(b.component_id)
            if rank is None:
                out.append(Violation("unknown-component", f"{q.id}[branch {k}]",
                                     f"branch references unknown component {b.component_id!r}"))
                continue
            # a component without a valid or unique rank was reported once, above
            if rank >= 1 and _check_monodromy(
                    b.monodromy, rank, f"{q.id}[branch {k}]", "branch", out, unimodular):
                kern = kernels.get(b.monodromy)
                if kern is None:
                    kern = kernels[b.monodromy] = branch_kernel(b)
                point_kernels.append(kern)
        if len(point_kernels) != len(q.branches):
            continue
        kernel_rows = sum(kern.rank for kern in point_kernels)
        if q.iota.rows != kernel_rows or q.iota.cols != q.fq_rank_low:
            out.append(Violation("iota-shape", q.id,
                                 f"iota must be {kernel_rows}x{q.fq_rank_low} "
                                 f"(sum of branch-kernel ranks by fq_rank_low), "
                                 f"got {q.iota.rows}x{q.iota.cols}"))
            continue
        pivots = linalg._echelon(zip(*q.iota.data))
        if len(pivots) == q.fq_rank_low:
            points.append((point_kernels, pivots))
        else:
            out.append(Violation("iota-not-injective", q.id,
                                 "iota must have full column rank"))

    for r in cfg.isolated_points:
        if r.milnor_number < 0:
            out.append(Violation("negative-rank", r.id, "Milnor number must be nonnegative"))

    if cfg.polar_data is not None:
        if len(cfg.polar_data) > cfg.original_s:
            out.append(Violation("polar-length", "polar_data",
                                 f"at most original_s = {cfg.original_s} pairs are "
                                 f"meaningful (k = 0..s-1), got {len(cfg.polar_data)}"))
        for k, (lam, clk) in enumerate(cfg.polar_data):
            if lam < 0 or clk < 0:
                out.append(Violation("polar-negative", f"polar_data[{k}]",
                                     "polar multiplicities and complex-link Betti numbers "
                                     "must be nonnegative"))

    md = cfg.monodromy_data
    if md is not None:
        if md.char_poly.is_zero:
            out.append(Violation("zero-polynomial", "monodromy_data.char_poly",
                                 "characteristic polynomial must be nonzero"))
        for i, p in enumerate(md.component_char_polys):
            if p.is_zero:
                out.append(Violation("zero-polynomial", f"monodromy_data.component_char_polys[{i}]",
                                     "characteristic polynomial must be nonzero"))
        if len(md.component_char_polys) != len(cfg.components):
            out.append(Violation("char-poly-count", "monodromy_data",
                                 f"need one per-component polynomial per component "
                                 f"({len(cfg.components)}), got {len(md.component_char_polys)}"))
        for kind, entries in (("eigen_dims", md.eigen_dims), ("jordan_sizes", md.jordan_sizes)):
            labels: set[str] = set()
            for e in entries:
                subject = f"monodromy_data.{kind}[{e.eigenvalue}]"
                if e.eigenvalue in labels:
                    out.append(Violation("duplicate-eigenvalue", subject,
                                         "eigenvalue labels must be unique within each list"))
                labels.add(e.eigenvalue)
                if e.total < 0 or any(x < 0 for x in e.components):
                    out.append(Violation("negative-rank", subject,
                                         "eigenvalue integers must be nonnegative"))
                if len(e.components) != len(cfg.components):
                    out.append(Violation("eigenvalue-count", subject,
                                         f"need one integer per component ({len(cfg.components)}), "
                                         f"got {len(e.components)}"))

    return out, points
