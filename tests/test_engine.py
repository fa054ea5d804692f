import json
import random
from copy import deepcopy

import pytest

import vancoh
from vancoh import (Branch, CurveComponent, FinAbGroup, IntegerMatrix, IsolatedPoint,
                    MonodromyData, Report, SliceConfiguration, SpecialPoint, analyze,
                    component_cohomology, matrix, parse_configuration,
                    serialize_configuration)
from vancoh.corpus import bundled
from vancoh.engine import InternalDefectError, InvalidConfigurationError
from vancoh.linalg import image
from vancoh.loader import load_bytes
from vancoh.polynomial import IntPolynomial
from vancoh.report import render_json, report_to_dict

import oracles
from helpers import (conjugate_component, count_calls, dense_iota_config, load_corpus,
                     permute_config, pipeline_documents, rand_unimodular, random_valid_config,
                     record_echelons, report_signature)


def empty_config(n=3):
    return SliceConfiguration(n=n, original_n=n, original_s=2,
                              components=(), special_points=(), isolated_points=())


class TestComponentCohomology:
    def test_identity_loop(self):
        c = CurveComponent("S", 0, 1, (matrix([[1]]),))
        cc = component_cohomology(c, 3)
        assert cc.invariants == image(IntegerMatrix.identity(1))
        assert cc.coker == FinAbGroup(1, ())
        assert cc.euler == 0

    def test_minus_identity_loop(self):
        c = CurveComponent("S", 0, 1, (matrix([[-1]]),))
        cc = component_cohomology(c, 3)
        assert cc.invariants == image(IntegerMatrix.zeros(1, 0))
        assert cc.coker == FinAbGroup(0, (2,))

    def test_no_loops(self):
        for n in (3, 4):
            cc = component_cohomology(CurveComponent("S", 0, 5, ()), n)
            assert cc.invariants == image(IntegerMatrix.identity(5))
            assert cc.coker == FinAbGroup(0, ())
            assert cc.euler == (-1) ** (n + 1) * 5


class TestBuildJ:
    def test_xyz_block_structure(self):
        j = analyze(load_corpus("xyz")).j_matrix
        assert (j.rows, j.cols) == (3, 5)
        # invariant block is the identity, point block is minus iota
        assert [row[:3] for row in j.tolist()] == IntegerMatrix.identity(3).tolist()
        assert [row[3:] for row in j.tolist()] == [[-1, 0], [1, -1], [0, 1]]

    def test_no_special_points(self):
        j = analyze(load_corpus("quadric_power_3_2")).j_matrix
        assert (j.rows, j.cols) == (0, 2)

    def test_all_kernels_zero(self):
        j = analyze(load_corpus("x2z_y2u")).j_matrix
        assert (j.rows, j.cols) == (0, 0)

    def test_two_branches_of_one_component_at_one_point(self):
        # a nodal curve through the point: the invariant generator goes
        # diagonally into both branch kernels
        cfg = SliceConfiguration(
            n=3, original_n=3, original_s=2,
            components=(CurveComponent("S", 0, 1, (matrix([[1]]), matrix([[1]]))),),
            special_points=(SpecialPoint(
                "q", (Branch("S", matrix([[1]])), Branch("S", matrix([[1]]))),
                1, 0, matrix([[1], [1]])),),
            isolated_points=())
        rep = analyze(cfg)
        assert rep.j_matrix.tolist() == [[1, -1], [1, -1]]
        assert rep.lowest_group == FinAbGroup(1, ())
        assert rep.g_rank == 1 and rep.i0_contribution == ()

    def test_branches_interleave_across_points(self):
        # S and T meet at both points in opposite branch orders and the
        # branch-free R sits between them: each branch's rows take its
        # component's columns, and each point's rows follow the earlier ones
        ident = matrix([[1]])
        cfg = SliceConfiguration(
            n=3, original_n=3, original_s=2,
            components=(CurveComponent("S", 0, 1, (ident, ident)),
                        CurveComponent("R", 0, 1, ()),
                        CurveComponent("T", 0, 1, (ident, ident))),
            special_points=(
                SpecialPoint("q1", (Branch("S", ident), Branch("T", ident)),
                             1, 0, matrix([[1], [1]])),
                SpecialPoint("q2", (Branch("T", ident), Branch("S", ident)),
                             0, 0, IntegerMatrix.zeros(2, 0))),
            isolated_points=())
        rep = analyze(cfg)
        assert rep.j_matrix.tolist() == [[1, 0, 0, -1], [0, 0, 1, -1], [0, 0, 1, 0],
                                         [1, 0, 0, 0]]
        assert rep.lowest_group == FinAbGroup(1, ())
        assert rep.i0_contribution == (("R", 1),)
        assert rep.g_rank == 0 and rep.bounds.min_bound == 1
        # the same walk reads each component's lower point ranks: S, R, T
        comps = tuple(component_cohomology(c, cfg.n) for c in cfg.components)
        _, _, lows = vancoh.engine._build_j(cfg, comps, vancoh.model._validate(cfg)[1])
        assert lows == [[1, 0], [], [1, 0]]

    def test_inconsistent_branch_reported_where_the_walk_meets_it(self):
        # T fails before S in the walk, at an earlier point or an earlier
        # branch of one point, though S comes first among components: the
        # walk raises at T's branch.  Both branches carry the same
        # (kernel, invariants) pair, which is solved once.
        ident, flip = matrix([[1]]), matrix([[-1]])
        for points in [(("q1", "T"), ("q2", "S")), (("q1", "TS"),)]:
            cfg = SliceConfiguration(
                n=3, original_n=3, original_s=2,
                components=(CurveComponent("S", 0, 1, (ident,)),
                            CurveComponent("T", 0, 1, (ident,))),
                special_points=tuple(
                    SpecialPoint(q, tuple(Branch(c, flip) for c in cs), 0, 0,
                                 IntegerMatrix.zeros(0, 0))
                    for q, cs in points),
                isolated_points=())
            with pytest.raises(InternalDefectError,
                               match="component 'T' .* branch 0 at point 'q1'"):
                analyze(cfg)

    def test_inconsistent_branch_monodromy_is_defect(self):
        # loop fixes everything, branch fixes nothing: the invariant module
        # cannot embed into the branch kernel
        cfg = SliceConfiguration(
            n=3, original_n=3, original_s=2,
            components=(CurveComponent("S", 0, 1, (matrix([[1]]),)),),
            special_points=(SpecialPoint("q", (Branch("S", matrix([[-1]])),),
                                         0, 0, IntegerMatrix.zeros(0, 0)),),
            isolated_points=())
        with pytest.raises(InternalDefectError, match="mutually inconsistent"):
            analyze(cfg)


class TestLowestVanishing:
    @pytest.mark.parametrize("name,rank", [
        ("xyz", 2), ("xyzu", 3), ("x2z_y2u", 0),
        ("quadric_power_2_2", 1), ("quadric_power_3_2", 2), ("quadric_power_2_3", 2),
    ])
    def test_corpus_groups(self, name, rank):
        assert analyze(load_corpus(name)).lowest_group == FinAbGroup(rank, ())

    def test_dense_iota(self):
        # identity monodromies: the invariants and both branch kernels are the
        # whole Z^mu, so ker j pairs a, b with iota1 a = iota2 b.  The blocks
        # share four columns, so j has neither full row nor full column rank.
        cfg = dense_iota_config(random.Random(34), 16, 10, 9, 4)
        f1, f2 = (q.fq_rank_low for q in cfg.special_points)
        iotas = [q.iota for q in cfg.special_points]
        for iota in iotas:
            assert oracles.rational_rank(iota.tolist()) == iota.cols
        rep = analyze(cfg)
        j = rep.j_matrix
        stacked = [r1 + r2 for r1, r2 in zip(iotas[0].tolist(), iotas[1].tolist())]
        expected = f1 + f2 - oracles.rational_rank(stacked)
        assert expected == 4 and j.rows + expected > j.cols
        assert rep.lowest_group == FinAbGroup(expected, ())
        assert expected == oracles.rational_nullity(j.tolist(), j.cols)


class TestDecompose:
    def test_branch_free_component(self):
        rep = analyze(load_corpus("quadric_power_3_2"))
        assert (rep.g_rank, rep.i0_contribution) == (0, (("S1", 2),))

    def test_xyz(self):
        rep = analyze(load_corpus("xyz"))
        assert (rep.g_rank, rep.i0_contribution) == (2, ())

    def test_empty(self):
        rep = analyze(empty_config())
        assert (rep.g_rank, rep.i0_contribution) == (0, ())


class TestEulerAndSixTerm:
    def test_xyz_values(self):
        rep = analyze(load_corpus("xyz"))
        assert rep.euler_total == 1
        six = rep.six_term
        assert (six.lowest_pair, six.domain, six.codomain, six.top_pair,
                six.middle, six.branch_coker) == (2, 5, 3, 1, 4, 3)
        assert six.consistent

    def test_isolated_only(self):
        cfg = empty_config()._replace(isolated_points=(
            IsolatedPoint("r1", 2), IsolatedPoint("r2", 3)))
        assert analyze(cfg).euler_total == -5

    def test_empty(self):
        assert analyze(empty_config()).euler_total == 0

    def test_q_empty_reduces_to_cokernel_side(self):
        six = analyze(load_corpus("quadric_power_2_3")).six_term
        assert six.codomain == 0 and six.branch_coker == 0
        assert six.top_pair == six.middle  # the sequence splits in two
        assert six.consistent

    def test_betti_high_bound(self):
        cfg = load_corpus("xyz")
        rep = analyze(cfg)
        assert rep.bounds.betti_high == 1  # tight for the torus fiber
        with_r = cfg._replace(isolated_points=(IsolatedPoint("r1", 4),))
        assert analyze(with_r).bounds.betti_high == 1 + 4

    def test_even_dimension_signs(self):
        # original_n = 4, original_s = 2: reduced n = 4 flips every sign
        cfg = SliceConfiguration(
            n=4, original_n=4, original_s=2,
            components=(CurveComponent("S", 0, 1, (matrix([[1]]),)),),
            special_points=(SpecialPoint(
                "q", (Branch("S", matrix([[1]])),), 1, 0, matrix([[1]]), 0),),
            isolated_points=())
        rep = analyze(cfg)
        assert rep.lowest_group == FinAbGroup(1, ())
        assert rep.lowest_degree == 2 and rep.original_degree == 2
        assert rep.euler_total == -1
        six = rep.six_term
        assert (six.lowest_pair, six.domain, six.codomain, six.top_pair,
                six.middle, six.branch_coker) == (1, 2, 1, 0, 1, 1)
        assert rep.components[0].euler == 0
        assert component_cohomology(CurveComponent("T", 0, 3, ()), 4).euler == -3


class TestShortcut:
    def test_minus_id_component(self):
        cfg = empty_config()._replace(components=(
            CurveComponent("S", 1, 1, (matrix([[-1]]), matrix([[1]]))),))
        rep = analyze(cfg)
        assert rep.shortcut_agrees is True
        assert rep.lowest_group == FinAbGroup(0, ())

    def test_two_components(self):
        cfg = empty_config()._replace(components=(
            CurveComponent("A", 0, 2, ()), CurveComponent("B", 0, 3, ())))
        rep = analyze(cfg)
        assert rep.shortcut_agrees is True
        assert rep.lowest_group == FinAbGroup(5, ())


class TestBounds:
    @pytest.mark.parametrize("name,upper", [
        ("xyz", 3), ("xyzu", 6), ("x2z_y2u", 0), ("quadric_power_2_2", 1),
    ])
    def test_upper(self, name, upper):
        assert analyze(load_corpus(name)).bounds.upper_lowest == upper

    def test_lower(self):
        cfg = load_corpus("xyz")
        bounds = analyze(cfg).bounds
        assert bounds.lower_lowest == 2  # tight: equals the true rank
        no_costalk = cfg._replace(special_points=tuple(
            q._replace(costalk_rank=None) for q in cfg.special_points))
        assert analyze(no_costalk).bounds.lower_lowest is None
        zero_costalk = cfg._replace(special_points=tuple(
            q._replace(costalk_rank=0) for q in cfg.special_points))
        assert analyze(zero_costalk).bounds.lower_lowest == bounds.upper_lowest

    @pytest.mark.parametrize("name,expected", [
        ("x2z_y2u", 0),   # every component has a rank-zero point
        ("xyz", 3),       # three times min(1, 2)
        ("quadric_power_3_2", 2),  # no points: transversal-rank convention
    ])
    def test_min_bound(self, name, expected):
        assert analyze(load_corpus(name)).bounds.min_bound == expected

    def test_sandwich_with_consistent_costalk(self):
        # Attach costalk ranks that absorb the actual defect of the upper
        # bound, as truthful data would, and check the full sandwich.
        rng = random.Random(41)
        for _ in range(30):
            cfg = random_valid_config(rng)
            rep = analyze(cfg)
            b = rep.lowest_group.free_rank
            defect = rep.bounds.upper_lowest - b
            if cfg.special_points:
                points = list(cfg.special_points)
                points[0] = points[0]._replace(costalk_rank=defect + rng.randrange(0, 2))
                points[1:] = [q._replace(costalk_rank=rng.randrange(0, 2))
                              for q in points[1:]]
                cfg = cfg._replace(special_points=tuple(points))
            else:
                assert defect == 0
            bounds = analyze(cfg).bounds
            assert bounds.lower_lowest is not None
            assert bounds.lower_lowest <= b <= min(bounds.upper_lowest, bounds.min_bound)

    def test_polar(self):
        cfg = empty_config()._replace(polar_data=((4, 0), (2, 1)))
        assert analyze(cfg).bounds.polar == ((0, 4), (1, 3))
        assert analyze(empty_config()).bounds.polar == ()


class TestMonodromyChecks:
    def test_xyz_predicates(self):
        checks = analyze(load_corpus("xyz")).monodromy
        assert checks.char_poly_divides
        assert checks.eigen_dims_ok == (("1", True),)
        assert checks.jordan_sizes_ok == (("1", True),)

    def test_divisibility_failure(self):
        md = MonodromyData(IntPolynomial((1, 0, 1)),
                           (IntPolynomial((-1, 1)),) * 3)
        cfg = load_corpus("xyz")._replace(monodromy_data=md)
        assert not analyze(cfg).monodromy.char_poly_divides

    def test_absent_without_data(self):
        assert analyze(empty_config()).monodromy is None


class TestAnalyze:
    def test_rejects_invalid(self):
        cfg = load_corpus("xyz")._replace(n=4)
        with pytest.raises(InvalidConfigurationError):
            analyze(cfg)


# One table of inputs for every identity of a report (McKeeman, "Differential
# testing for software", DTJ 1998): each check below runs on every source.

def _empty_points_config():
    """Special points whose iota blocks are empty: two with fq_rank_low 0
    on rank-2 S, and one on T whose branch fixes nothing, so its iota has
    no rows.  They sit before and between points with columns."""
    ident = IntegerMatrix.identity(2)
    flip = matrix([[-1]])
    return SliceConfiguration(
        n=3, original_n=3, original_s=2,
        components=(CurveComponent("S", 0, 2, (ident,) * 4),
                    CurveComponent("T", 0, 1, (flip,))),
        special_points=(
            SpecialPoint("q0", (Branch("S", ident),), 0, 0, IntegerMatrix.zeros(2, 0)),
            SpecialPoint("q1", (Branch("S", ident),), 1, 0, matrix([[2], [3]])),
            SpecialPoint("q2", (Branch("T", flip),), 0, 1, IntegerMatrix.zeros(0, 0)),
            SpecialPoint("q3", (Branch("S", ident),), 0, 0, IntegerMatrix.zeros(2, 0)),
            SpecialPoint("q4", (Branch("S", ident),), 2, 0, matrix([[4, 1], [6, -5]]))),
        isolated_points=())


SOURCES = {"corpus": 6, "hand": 3, "random": 300, "dense-iota": 4, "pipeline": 327}


def source_configs(source):
    """The corpus; two empty configurations and one with empty iota blocks;
    seeded random or dense-iota draws; or every valid document of the
    pipeline set."""
    if source == "corpus":
        return [load_corpus(name) for name, _ in bundled()]
    if source == "hand":
        return [empty_config(3), empty_config(4), _empty_points_config()]
    rng = random.Random(7)
    if source == "random":
        return [random_valid_config(rng, max_rank=5, with_costalk=bool(k % 2))
                for k in range(300)]
    if source == "dense-iota":
        configs = [dense_iota_config(rng, mu, mu - 2, mu - 3, 2) for mu in (6, 8, 10, 12)]
    else:
        configs = [load_bytes(raw).configuration for raw in pipeline_documents()]
    return [cfg for cfg in configs if cfg is not None and not vancoh.validate(cfg)]


@pytest.fixture(scope="module", params=list(SOURCES))
def table(request):
    """The source's name and, per configuration, (cfg, its report or None
    when `analyze` raises an internal defect, the arguments of each
    `intersect` call the cross-check made)."""
    configs = source_configs(request.param)
    assert len(configs) == SOURCES[request.param]
    rows = []
    with pytest.MonkeyPatch.context() as mp:
        intersections = count_calls(mp, vancoh.linalg, "intersect")
        for cfg in configs:
            intersections.clear()
            try:
                rep = analyze(cfg)
            except InternalDefectError:
                rep = None
            rows.append((cfg, rep, intersections[:]))
    return request.param, rows


def reports(table):
    return [row for row in table[1] if row[1] is not None]


def test_matches_reference(table):
    """`analyze` against the reference in `oracles`, which lays out j from
    the configuration's plain fields with no engine or linalg code."""
    source, rows = table
    defects = 0
    for cfg, rep, _ in rows:
        if rep is None:
            with pytest.raises(ValueError, match="outside a branch kernel"):
                oracles.reference_j(cfg)
            defects += 1
            continue
        assert rep.j_matrix.tolist() == oracles.reference_j(cfg), cfg
        assert rep.lowest_group.free_rank == oracles.reference_lowest(cfg), cfg
        assert rep.g_rank == oracles.reference_interaction(cfg), cfg
    # the pipeline set holds one document whose monodromies are inconsistent
    assert defects == (1 if source == "pipeline" else 0)


def test_always_free(table):
    for _, rep, _ in reports(table):
        assert rep.lowest_group.torsion == ()


def test_rank_is_rational_nullity(table):
    for _, rep, _ in reports(table):
        j = rep.j_matrix
        assert rep.lowest_group.free_rank == oracles.rational_nullity(j.tolist(), j.cols)


def test_structure_identity(table):
    for _, rep, _ in reports(table):
        assert rep.lowest_group.free_rank == rep.g_rank + sum(
            r for _, r in rep.i0_contribution)


def test_degrees(table):
    for cfg, rep, _ in reports(table):
        assert (rep.lowest_degree, rep.original_degree) == (
            cfg.n - 2, cfg.original_n - cfg.original_s)


def test_euler_formula(table):
    for cfg, rep, _ in reports(table):
        for c, cc in zip(cfg.components, rep.components, strict=True):
            tau = sum(b.component_id == c.id for q in cfg.special_points for b in q.branches)
            assert cc.euler == (-1) ** cfg.n * (2 * c.genus + tau - 1) * c.transversal_rank


def test_bookkeeping_matches_euler(table):
    for cfg, rep, _ in reports(table):
        six = rep.six_term
        mu = sum(r.milnor_number for r in cfg.isolated_points)
        book = (-1) ** (cfg.n - 1) * six.lowest_pair + (-1) ** cfg.n * (six.top_pair + mu)
        assert book == oracles.euler_direct(cfg) == rep.euler_total


def test_min_bound_is_a_bound(table):
    for _, rep, _ in reports(table):
        rank = rep.lowest_group.free_rank
        assert rank <= rep.bounds.min_bound and rank <= rep.bounds.upper_lowest


def test_shortcut(table):
    for cfg, rep, _ in reports(table):
        assert rep.shortcut_agrees is (None if cfg.special_points else True)


def test_point_image(table):
    """The cross-check's basis of j's point block, finished from the iota
    echelons of validation, is the Hermite basis `image` takes of that
    block of the report's j."""
    for _, rep, intersections in reports(table):
        j = rep.j_matrix
        upper = sum(cc.invariants.rank for cc in rep.components)
        [(_, points)] = intersections
        assert points == image(IntegerMatrix(j.rows, j.cols - upper,
                                             tuple(r[upper:] for r in j.data)))


def test_handoff_read_only(table):
    # the point block's basis is finished from copies of validation's iota
    # echelons: the records stay as written, and a second build on them
    # gives the same result
    for cfg, rep, _ in reports(table):
        violations, points = vancoh.model._validate(cfg)
        assert violations == []
        # injectivity of iota forces the rank inequality at every point
        assert all(q.fq_rank_low <= sum(k.rank for k in kernels)
                   for q, (kernels, _) in zip(cfg.special_points, points, strict=True))
        snapshot = deepcopy(points)
        first = vancoh.engine._build_j(cfg, rep.components, points)
        assert vancoh.engine._build_j(cfg, rep.components, points) == first
        assert points == snapshot


# a reordering and a basis change of one component describe the same
# geometry, so they leave every scalar of the report unchanged

def test_permutation_keeps_reports(table):
    rng = random.Random(38)
    for cfg, rep, _ in reports(table):
        assert report_signature(analyze(permute_config(cfg, rng))) == report_signature(rep)


def test_basis_change_keeps_reports(table):
    rng = random.Random(38)
    for cfg, rep, _ in reports(table):
        if cfg.components:
            comp = rng.choice(cfg.components)
            u = rand_unimodular(rng, comp.transversal_rank)
            changed = conjugate_component(cfg, comp.id, u)
            assert report_signature(analyze(changed)) == report_signature(rep)


def test_round_trip(table):
    # through actual JSON text, as the command line would see it
    for cfg, _, _ in table[1]:
        doc = json.loads(json.dumps(serialize_configuration(cfg)))
        reparsed = parse_configuration(doc)
        assert (reparsed.configuration, reparsed.violations, reparsed.unknown_keys) == (
            cfg, [], [])


def test_json_matches_stdlib(table):
    """`render_json` writes what the standard library's indenting encoder
    writes for the report document."""
    wrapped = [Report(f"c{k}", (), rep) for k, (_, rep, _) in enumerate(reports(table))]
    for verbose in (False, True):
        docs = [report_to_dict(r, verbose) for r in wrapped]
        assert render_json(wrapped, verbose) == json.dumps(
            docs, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def prefixed(cfg, tag):
    """`cfg` with every component, point and isolated id prefixed by `tag`."""
    return cfg._replace(
        components=tuple(c._replace(id=tag + c.id) for c in cfg.components),
        special_points=tuple(q._replace(id=tag + q.id, branches=tuple(
            b._replace(component_id=tag + b.component_id) for b in q.branches))
            for q in cfg.special_points),
        isolated_points=tuple(r._replace(id=tag + r.id) for r in cfg.isolated_points))


class TestBlockSum:
    def test_disjoint_union_adds(self):
        """The report of a disjoint union is the sum of its parts' reports:
        ranks add, per-component lists concatenate, and j is the parts'
        blocks with invariant columns first, then point columns, and rows
        in point order."""
        def ranks(rep):
            six, bnd = rep.six_term, rep.bounds
            return (rep.lowest_group.free_rank, rep.g_rank, rep.euler_total,
                    six.lowest_pair, six.domain, six.codomain, six.top_pair, six.middle,
                    six.branch_coker, bnd.upper_lowest, bnd.min_bound, bnd.betti_high)

        rng = random.Random(41)
        mixed = 0
        for _ in range(40):
            a = random_valid_config(rng, with_costalk=bool(rng.getrandbits(1)))
            b = random_valid_config(rng, with_costalk=bool(rng.getrandbits(1)))
            a, b = (prefixed(cfg, tag)._replace(n=a.n, original_n=a.original_n,
                                                original_s=a.original_s, polar_data=None,
                                                monodromy_data=None)
                    for cfg, tag in ((a, "a"), (b, "b")))
            union = a._replace(components=a.components + b.components,
                               special_points=a.special_points + b.special_points,
                               isolated_points=a.isolated_points + b.isolated_points)
            ra, rb, ru = analyze(a), analyze(b), analyze(union)

            assert ranks(ru) == tuple(x + y for x, y in zip(ranks(ra), ranks(rb)))
            assert ru.lowest_group.torsion == ()
            if ra.bounds.lower_lowest is not None and rb.bounds.lower_lowest is not None:
                assert ru.bounds.lower_lowest == ra.bounds.lower_lowest + rb.bounds.lower_lowest
            assert ru.i0_contribution == ra.i0_contribution + rb.i0_contribution
            assert ru.components == ra.components + rb.components

            ja, jb = ra.j_matrix, rb.j_matrix
            ua, ub = (sum(c.invariants.rank for c in rep.components) for rep in (ra, rb))
            expected = ([r[:ua] + (0,) * ub + r[ua:] + (0,) * (jb.cols - ub) for r in ja.data]
                        + [(0,) * ua + r[:ub] + (0,) * (ja.cols - ua) + r[ub:] for r in jb.data])
            assert (ru.j_matrix.rows, ru.j_matrix.cols) == (ja.rows + jb.rows, ja.cols + jb.cols)
            assert list(ru.j_matrix.data) == expected
            mixed += bool(ru.i0_contribution) and len(ru.i0_contribution) < len(ru.components)
        # branch-free and branched components side by side in one union
        assert mixed >= 20


class TestSinglePass:
    def test_each_intermediate_once(self, monkeypatch):
        cfg = load_corpus("xyzu")
        snf = count_calls(monkeypatch, vancoh.linalg, "smith_normal_form")
        cokernels = count_calls(monkeypatch, vancoh.linalg, "cokernel")
        kernels = count_calls(monkeypatch, vancoh.linalg, "kernel")
        images = count_calls(monkeypatch, vancoh.linalg, "image")
        echelons = count_calls(monkeypatch, vancoh.linalg, "_echelon")
        validations = count_calls(monkeypatch, vancoh.model, "_validate")
        comps = count_calls(monkeypatch, vancoh.engine, "component_cohomology")
        builds = count_calls(monkeypatch, vancoh.engine, "_build_j")
        checks = count_calls(monkeypatch, vancoh.linalg, "is_unimodular")
        solves = count_calls(monkeypatch, vancoh.linalg, "solve_in_basis")
        analyze(cfg)
        # one cokernel per component, without transforms
        assert len(cokernels) == len(cfg.components) == 6
        assert snf == []
        # every loop and branch of xyzu carries [[1]], and every branch
        # pairs its kernel with invariants Z^1: one unimodularity check,
        # one branch kernel and one solve.  One kernel per component; ker j
        # is counted, not built
        assert (len(checks), len(solves)) == (1, 1)
        assert len(kernels) == 6 + 1
        # kernels and the intersection back-normalise inside their own
        # echelon pass, and the point block's basis is finished from
        # validation's iota echelons: the only full Hermite form is the
        # cross-check's image of the invariant block, and each kernel, iota,
        # rank, unimodularity, image and intersect call runs exactly one
        # elimination: 1 check, 7 kernels, 4 iotas, rank j, image, intersect.
        # Every xyzu cokernel has unit pivots, so each echelons its rows once
        assert len(images) == 1
        assert len(echelons) == 15 + 6
        assert (len(validations), len(builds)) == (1, 1)
        assert [c.id for c, _ in comps] == [c.id for c in cfg.components]

    def test_no_transpose_is_built(self, monkeypatch):
        # kernel and the branch kernels read m's columns straight off its
        # rows; no pass builds a transposed matrix only to unwrap it
        cfg = load_corpus("xyzu")
        transposes = count_calls(monkeypatch, IntegerMatrix, "transpose")
        analyze(cfg)
        assert vancoh.model.validate(cfg) == []
        assert transposes == []

    def test_cross_check_eliminates_kernel_stack(self, monkeypatch):
        # the interaction cross-check eliminates [A B; I 0], A the image of
        # smaller rank: n + min(ra, rb) rows
        echelons = record_echelons(monkeypatch)
        stacks = []
        original = vancoh.linalg.intersect

        def recording(a, b):
            start = len(echelons)
            result = original(a, b)
            stacks.append((a, b, echelons[start:]))
            return result

        monkeypatch.setattr(vancoh.linalg, "intersect", recording)
        analyze(load_corpus("xyzu"))
        [(a, b, [columns])] = stacks
        n, low = a.ambient_rank, min(a.rank, b.rank)
        assert low < n
        assert len(columns) == a.rank + b.rank
        assert all(len(c) == n + low for c in columns)
        assert [c[n:] for c in columns] == [tuple(int(i == k) for i in range(low))
                                            for k in range(a.rank + b.rank)]

    def test_kernel_route_eliminates_j_rows(self, monkeypatch):
        # rank(j) is one echelon of the raw j's transpose: the columns it
        # eliminates are j's rows, neither the point block's basis nor the
        # cross-check stack
        echelons = record_echelons(monkeypatch)
        ranks = []
        original_rank = vancoh.linalg.rank

        def recording(m):
            start = len(echelons)
            result = original_rank(m)
            ranks.append(echelons[start:])
            return result

        monkeypatch.setattr(vancoh.linalg, "rank", recording)
        for name in ("xyz", "xyzu"):
            ranks.clear()
            report = analyze(load_corpus(name))
            j = report.j_matrix
            [[columns]] = ranks
            assert columns == list(j.data)
            assert report.lowest_group.free_rank == j.cols - oracles.rational_rank(j.tolist())

    def test_each_monodromy_shifted_once(self, monkeypatch):
        # nu - id is formed by one shift per loop and per distinct branch
        # monodromy, with no identity matrix built; matrices have no
        # subtraction at all
        cfg = load_corpus("xyzu")
        identities = count_calls(monkeypatch, IntegerMatrix, "identity")
        shifts = count_calls(monkeypatch, IntegerMatrix, "shifted")
        analyze(cfg)
        assert len(shifts) == 12 + 1
        assert vancoh.model.validate(cfg) == []
        assert len(shifts) == 13 + 1
        assert identities == []
        assert not hasattr(IntegerMatrix, "__sub__")

    def test_tables_last_one_call(self, monkeypatch):
        # each call checks and kernels its monodromies afresh: nothing is
        # kept from one configuration to the next
        cfg = load_corpus("xyzu")
        checks = count_calls(monkeypatch, vancoh.linalg, "is_unimodular")
        kernels = count_calls(monkeypatch, vancoh.model, "branch_kernel")
        analyze(cfg)
        analyze(cfg)
        assert (len(checks), len(kernels)) == (2, 2)
        assert vancoh.model.validate(cfg) == []
        assert (len(checks), len(kernels)) == (3, 3)

    def test_validation_back_normalises_only_kernels(self, monkeypatch):
        # validation keeps each iota's echelon as it is; only the engine
        # finishes it into a Hermite basis.  xyzu's 12 branches share one
        # monodromy, so one kernel
        kernels = count_calls(monkeypatch, vancoh.linalg, "kernel")
        finishes = count_calls(monkeypatch, vancoh.linalg, "_back_normalise")
        assert vancoh.model.validate(load_corpus("xyzu")) == []
        assert len(finishes) == len(kernels) == 1

    def test_validation_runs_no_smith_form(self, monkeypatch):
        cfgs = [load_corpus(name) for name in ("xyz", "xyzu", "x2z_y2u")]
        snf = count_calls(monkeypatch, vancoh.linalg, "smith_normal_form")
        cokernels = count_calls(monkeypatch, vancoh.linalg, "cokernel")
        assert [vancoh.model.validate(cfg) for cfg in cfgs] == [[], [], []]
        assert snf == cokernels == []

    def test_euler_bookkeeping_fires(self, monkeypatch):
        original = vancoh.engine.component_cohomology
        monkeypatch.setattr(vancoh.engine, "component_cohomology", lambda c, n: (
            original(c, n)._replace(coker=FinAbGroup(0, ()))))  # Z^1 for xyz
        with pytest.raises(InternalDefectError) as info:
            analyze(load_corpus("xyz"))
        assert str(info.value) == (
            "Euler bookkeeping mismatch: six-term ranks give 4, direct formula gives 1")

    def test_interaction_rank_fires(self, monkeypatch):
        monkeypatch.setattr(vancoh.linalg, "intersect",
                            lambda a, b: image(IntegerMatrix.zeros(a.ambient_rank, 0)))
        with pytest.raises(InternalDefectError) as info:
            analyze(load_corpus("xyz"))  # interaction rank 2
        assert str(info.value) == (
            "interaction rank mismatch: kernel route gives 2, image intersection gives 0")

    def test_shortcut_fires(self, monkeypatch):
        # a j with a nonzero row loses one kernel dimension
        monkeypatch.setattr(vancoh.engine, "_build_j", lambda *args: (
            matrix([[1, 0]]), image(IntegerMatrix.zeros(1, 0)), [[]]))
        with pytest.raises(InternalDefectError) as info:
            analyze(load_corpus("quadric_power_3_2"))
        assert str(info.value) == (
            "direct-sum shortcut mismatch: invariant sum gives 2, kernel computation gives 1")
