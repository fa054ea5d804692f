"""Computation of the lowest vanishing cohomology group and its cross-checks.

Given a validated configuration with a two-dimensional sliced singular
locus, this module assembles the matrix of the Mayer-Vietoris comparison
map j from component invariants and special-point cohomology into the
branch kernels.  The lowest group is ker j, a free group, so only its rank
is computed, by rank-nullity from the rank of j; no kernel basis is built.
From it follow the Euler-characteristic bookkeeping, the six-term exactness
ranks, the Betti bounds, and the monodromy divisibility predicates.  The
interaction rank is cross-checked as the rank of the intersection of the
images of j's invariant and point blocks, rk A + rk B - rk [A B] over the
two Hermite bases' columns; `_build_j` finishes the point block's basis
from validation's iota echelons as they are.  `analyze` runs it all in
one pass, and each of its three cross-checks compares two routes to one
number through `_agree`, which raises naming both routes and both values.
The Euler bookkeeping never reads the lowest rank: per component, it
compares the rank `cokernel` reads from the stacked nu - id rows with the
rank of its [m; I] kernel.  The interaction cross-check and the
no-special-point shortcut check the answer, given j; with no special
points, both compare the lowest rank with `upper`, the invariant ranks' sum.
"""

from __future__ import annotations

from collections import namedtuple

from . import linalg, model
from .linalg import FinAbGroup, IntegerMatrix, Submodule
from .model import CurveComponent, PointRecord, SliceConfiguration
from .polynomial import poly_divides, poly_product


class InternalDefectError(Exception):
    """An engine invariant failed: a bug or mathematically impossible input.

    Raised, never silently patched; the command line maps it to exit code 2.
    """


class InvalidConfigurationError(ValueError):
    """Engine entry point called on a configuration that fails validation."""

    def __init__(self, violations):
        super().__init__("; ".join(f"{v.code}({v.subject})" for v in violations))
        self.violations = list(violations)


class ComponentCohomology(namedtuple("ComponentCohomology",
                                     "component_id invariants coker euler")):
    """Invariant submodule, monodromy cokernel and Euler number of one curve."""

    __slots__ = ()


class SixTermCheck(namedtuple("SixTermCheck", "lowest_pair domain codomain top_pair middle "
                              "branch_coker consistent")):
    """Ranks of the six-term exact sequence, with the top rank solved from
    exactness.  `consistent` is False when the input data force a negative
    rank, i.e. the supplied Betti numbers are mutually contradictory.

    `lowest_pair` is the rank of the lowest pair group (= rank ker j);
    `domain` counts the invariants plus the special points' lower ranks;
    `codomain` is the sum of the branch-kernel ranks; `top_pair` is the
    rank of the top pair group, solved from exactness; `middle` counts the
    component cokernels' free ranks plus the upper ranks; `branch_coker`
    counts the branch cokernels' free ranks.
    """

    __slots__ = ()


class MonodromyChecks(namedtuple("MonodromyChecks",
                                 "char_poly_divides eigen_dims_ok jordan_sizes_ok")):
    """Outcomes of the divisibility and eigenvalue/Jordan predicates."""

    __slots__ = ()


class Bounds(namedtuple("Bounds", "upper_lowest lower_lowest min_bound betti_high polar")):
    """Upper, lower and concentration bounds on the lowest rank; next-degree and polar bounds."""

    __slots__ = ()


class VanishingReport(namedtuple("VanishingReport", "lowest_group lowest_degree "
                                 "original_degree g_rank i0_contribution components euler_total "
                                 "six_term bounds monodromy shortcut_agrees j_matrix")):
    """Everything the engine computes for one valid configuration.

    `lowest_degree` is the degree n-2 in the sliced germ, `original_degree`
    the degree original_n - original_s upstairs; `shortcut_agrees` is only
    set when there are no special points.
    """

    __slots__ = ()


def component_cohomology(c: CurveComponent, n: int) -> ComponentCohomology:
    """Invariants, cokernel and Euler number of one curve component.

    Both come from the vertically stacked matrix of (nu - id) over all loop
    generators: its kernel is the intersection of the per-loop kernels (the
    full module when there are no generators), and its cokernel is taken for
    the map into the direct sum over generators.
    """
    mu = c.transversal_rank
    rows = tuple(row for nu in c.loop_monodromies for row in nu.shifted(-1).data)
    stacked = IntegerMatrix(len(rows), mu, rows)
    # 2 * genus + tau - 1 for the punctured curve: one less than the loops
    euler = (-1) ** n * (len(c.loop_monodromies) - 1) * mu
    return ComponentCohomology(c.id, linalg.kernel(stacked), linalg.cokernel(stacked), euler)


def _build_j(cfg: SliceConfiguration, comps: tuple[ComponentCohomology, ...],
             points: list[PointRecord]) -> tuple[IntegerMatrix, Submodule, list]:
    """Matrix of the comparison map j into the branch kernels, the Hermite
    basis of the column span of its point block, and each component's list
    of the fq_rank_low of the point at each of its branches.

    Domain basis: canonical invariant bases of the components (declaration
    order), then the standard basis of Z^fq_rank_low for each special point.
    Codomain basis: canonical branch-kernel bases, points then branches in
    declaration order.  The invariant block is the diagonal inclusion of
    each component's invariants into every kernel of its branches, with
    coordinates obtained by exact solve; the point block is -iota, so that
    ker j consists of the matched pairs.  One walk over the special points
    and their validated (branch kernels, iota echelon) records lays out
    both blocks, and is the one read of the component-point incidence.
    -iota spans the lattice of iota, so the point block's Hermite basis is
    the block diagonal of the back-normalised iota echelons, whose rows the
    walk lays beside the -iota rows: pivot rows still increase, and no pivot
    row holds an entry of an earlier point's column.  The records stay as
    validation wrote them.  Each distinct (kernel, invariants) pair is
    solved once; an inconsistent one raises where the walk meets it.
    """
    first_col, upper = {}, 0
    for ci, cc in enumerate(comps):
        first_col[cc.component_id] = ci, upper
        upper += cc.invariants.rank
    codomain = sum(q.iota.rows for q in cfg.special_points)
    domain = upper + sum(q.fq_rank_low for q in cfg.special_points)
    data = [[0] * domain for _ in range(codomain)]
    hermite = [[0] * (domain - upper) for _ in range(codomain)]
    lows = [[] for _ in comps]
    solved = {}  # (kernel basis, invariant basis) -> coordinates or None
    row0, col0 = 0, upper
    for q, (kernels, pivots) in zip(cfg.special_points, points):
        finished = linalg._back_normalise(pivots)
        for i, (row, basis_row) in enumerate(zip(q.iota.data, zip(*finished))):
            data[row0 + i][col0:col0 + q.fq_rank_low] = [-x for x in row]
            hermite[row0 + i][col0 - upper:col0 - upper + q.fq_rank_low] = basis_row
        col0 += q.fq_rank_low
        for k, (b, kern) in enumerate(zip(q.branches, kernels)):
            ci, c0 = first_col[b.component_id]
            lows[ci].append(q.fq_rank_low)
            inv = comps[ci].invariants
            pair = kern.basis, inv.basis
            if pair not in solved:
                solved[pair] = linalg.solve_in_basis(*pair)
            coords = solved[pair]
            if coords is None:
                raise InternalDefectError(
                    f"invariant submodule of component {b.component_id!r} does not "
                    f"lie in the kernel of branch {k} at point {q.id!r}; the "
                    f"supplied loop and branch monodromies are mutually inconsistent")
            for i, row in enumerate(coords.data):
                data[row0 + i][c0:c0 + inv.rank] = row
            row0 += kern.rank
    j = IntegerMatrix(codomain, domain, tuple(tuple(r) for r in data))
    block = IntegerMatrix(codomain, domain - upper, tuple(map(tuple, hermite)))
    return j, Submodule(block), lows


def _interaction_rank(a: Submodule, b: Submodule) -> int:
    """Rank of the intersection of the lattices of two bases of full column
    rank, rk A + rk B - rk [A B], from one echelon of their columns."""
    columns = (*zip(*a.basis.data), *zip(*b.basis.data))
    return len(columns) - linalg.rank(IntegerMatrix(len(columns), a.ambient_rank, columns))


def _agree(check: str, one: tuple[str, int], other: tuple[str, int]) -> None:
    """Raise InternalDefectError naming both routes and values unless they agree."""
    if one[1] != other[1]:
        raise InternalDefectError(f"{check} mismatch: {one[0]} {one[1]}, {other[0]} {other[1]}")


def analyze(cfg: SliceConfiguration) -> VanishingReport:
    """Run the whole computation on a configuration in a single pass.

    Validation hands on each special point's branch kernels and iota
    echelon, from which `_build_j` lays out j and its point block's basis.
    The component invariants, j and the rank of ker j are each computed
    once, and every ledger and cross-check reads them; the six-term ledger
    writes d = a - b + e.  Raises InvalidConfigurationError on validation
    failure and InternalDefectError when an internal invariant breaks.
    """
    violations, points = model._validate(cfg)
    if violations:
        raise InvalidConfigurationError(violations)

    comps = tuple(component_cohomology(c, cfg.n) for c in cfg.components)
    j, point_image, lows = _build_j(cfg, comps, points)
    # The integer kernel is saturated, so its rank is the rational nullity.
    # rank echelons the rows of the raw j, so it walks j's sparse invariant
    # columns before its dense -iota ones; the interaction cross-check
    # echelons two bases' columns instead, so the routes stay independent.
    lowest = FinAbGroup(j.cols - linalg.rank(j), ())
    upper = sum(cc.invariants.rank for cc in comps)

    # Decomposition: the branch-free components' invariants plus the
    # interaction part, whose rank is cross-checked as that of the two
    # images' intersection, rk A + rk B - rk [A B] for their Hermite bases.
    # Branch-free components have zero columns in j, so the invariant
    # columns span the same image as those of the components with branches.
    i0 = [(cc.component_id, cc.invariants.rank) for cc, low in zip(comps, lows) if not low]
    g_rank = lowest.free_rank - sum(r for _, r in i0)
    g_direct = _interaction_rank(
        linalg.image(IntegerMatrix(j.rows, upper, tuple(r[:upper] for r in j.data))),
        point_image)

    # Six-term ranks: the alternating sum of the five determined terms fixes
    # the top pair group; a negative value flags contradictory input ranks.
    # Each branch map nu - id is square, so the free rank of its cokernel
    # equals the rank of its kernel: the branch cokernel term is the sum of
    # the branch-kernel ranks, j.rows, which is also the codomain term, so
    # the two cancel in d = c - b + a + e - f.
    a = lowest.free_rank
    b = j.cols
    e = sum(cc.coker.free_rank for cc in comps) + sum(q.fq_rank_high for q in cfg.special_points)
    d = a - b + e
    six = SixTermCheck(a, b, j.rows, d, e, j.rows, consistent=d >= 0)

    # The ranks must reproduce the Euler characteristic of the whole
    # vanishing neighborhood pair exactly.  Each special point takes away
    # chi(F_q) - 1 = (-1)^n (fq_rank_low - fq_rank_high), the local reduced
    # cohomology being concentrated in degrees n-2 and n-1.  The lowest rank
    # a cancels from -a + d (see the module docstring).
    mu_sum = sum(r.milnor_number for r in cfg.isolated_points)
    euler = sum(cc.euler for cc in comps) + (-1) ** cfg.n * (
        mu_sum + sum(q.fq_rank_high - q.fq_rank_low for q in cfg.special_points))
    bookkeeping = (-1) ** cfg.n * (e - b + mu_sum)

    if not cfg.special_points:
        _agree("direct-sum shortcut",
               ("invariant sum gives", upper), ("kernel computation gives", a))
    _agree("interaction rank",
           ("kernel route gives", g_rank), ("image intersection gives", g_direct))
    _agree("Euler bookkeeping",
           ("six-term ranks give", bookkeeping), ("direct formula gives", euler))

    # Upper bound: the monomorphism bound refined to the invariant
    # submodules.  Lower bound: minus the costalk corrections, absent unless
    # every special point supplies one.  Concentration bound: components
    # with a rank-zero special point drop out; the others contribute the
    # smaller of the transversal rank and their points' lower ranks (the
    # transversal rank alone without special points, a conservative
    # convention).
    costalks = [q.costalk_rank for q in cfg.special_points]
    concentration = sum(min([c.transversal_rank] + low)
                        for c, low in zip(cfg.components, lows) if 0 not in low)
    bounds = Bounds(
        upper_lowest=upper,
        lower_lowest=None if None in costalks else upper - sum(costalks),
        min_bound=concentration,
        betti_high=six.top_pair + mu_sum,
        polar=tuple((k, lam + clk) for k, (lam, clk) in enumerate(cfg.polar_data or ())),
    )

    # Monodromy predicates: whether the supplied characteristic polynomial
    # divides the product of the per-component ones, and the eigenvalue and
    # Jordan inequalities.
    monodromy = None
    md = cfg.monodromy_data
    if md is not None:
        monodromy = MonodromyChecks(
            poly_divides(md.char_poly, poly_product(md.component_char_polys)),
            tuple((ev.eigenvalue, ev.total <= sum(ev.components)) for ev in md.eigen_dims),
            tuple((ev.eigenvalue, ev.total <= sum(ev.components)) for ev in md.jordan_sizes))

    return VanishingReport(
        lowest_group=lowest,
        lowest_degree=cfg.n - 2,
        original_degree=cfg.original_n - cfg.original_s,
        g_rank=g_rank,
        i0_contribution=tuple(i0),
        components=comps,
        euler_total=euler,
        six_term=six,
        bounds=bounds,
        monodromy=monodromy,
        shortcut_agrees=None if cfg.special_points else True,
        j_matrix=j,
    )
