import json

import pytest

import vancoh
from vancoh import (Branch, CurveComponent, IsolatedPoint, SliceConfiguration, SpecialPoint,
                    branch_kernel, image, matrix, parse_configuration, serialize_configuration,
                    validate)
from vancoh import linalg, loader
from vancoh.corpus import bundled
from vancoh.linalg import IntegerMatrix

from helpers import SINGLE_FAULTS, emitted_codes, load_corpus


class TestBranchKernel:
    def test_identity(self):
        assert branch_kernel(Branch("S", matrix([[1]]))) == image(IntegerMatrix.identity(1))

    def test_minus_identity(self):
        assert branch_kernel(Branch("S", matrix([[-1]]))) == image(IntegerMatrix.zeros(1, 0))

    def test_shear(self):
        k = branch_kernel(Branch("S", matrix([[1, 1], [0, 1]])))
        assert k.basis.tolist() == [[1], [0]]

    def test_deterministic(self):
        b = Branch("S", matrix([[1, 2], [0, -1]]))
        assert branch_kernel(b) == branch_kernel(b)

    def test_non_square_raises(self):
        with pytest.raises(ValueError):
            branch_kernel(Branch("S", matrix([[1, 0, 0], [0, 1, 0]])))


class TestValidate:
    def test_corpus_is_valid(self):
        for name, _ in bundled():
            assert validate(load_corpus(name)) == []

    def test_repeated_fault_reported_at_each_occurrence(self):
        # every loop and branch of xyzu carries [[1]]; as [[2]] the one
        # matrix is reported at each of them, in declaration order
        cfg = load_corpus("xyzu")
        two = matrix([[2]])
        bad = cfg._replace(
            components=tuple(c._replace(loop_monodromies=(two,) * len(c.loop_monodromies))
                             for c in cfg.components),
            special_points=tuple(q._replace(branches=tuple(b._replace(monodromy=two)
                                                           for b in q.branches))
                                 for q in cfg.special_points))
        expected = ([("loop-not-unimodular", f"{c.id}[loop {w}]")
                     for c in cfg.components for w in range(len(c.loop_monodromies))]
                    + [("branch-not-unimodular", f"{q.id}[branch {k}]")
                       for q in cfg.special_points for k in range(len(q.branches))])
        assert len(expected) == 24
        assert [(v.code, v.subject) for v in validate(bad)] == expected

    def test_repeated_matrix_shape_checked_per_component(self):
        # one 2x2 matrix under components of rank 2, 1 and 2: only the
        # rank-1 component's loop and branch have the wrong shape
        ident = IntegerMatrix.identity(2)
        cfg = load_corpus("xyz")._replace(
            monodromy_data=None, polar_data=None, isolated_points=(),
            components=(CurveComponent("S", 0, 2, (ident,)), CurveComponent("T", 0, 1, (ident,)),
                        CurveComponent("U", 0, 2, (ident,))),
            special_points=(
                SpecialPoint("q1", (Branch("S", ident), Branch("T", ident)), 0, 0,
                             IntegerMatrix.zeros(0, 0)),
                SpecialPoint("q2", (Branch("U", ident),), 0, 0, IntegerMatrix.zeros(2, 0))))
        assert [(v.code, v.subject) for v in validate(cfg)] == [
            ("loop-shape", "T[loop 0]"), ("branch-shape", "q1[branch 1]")]

    def test_idempotent(self):
        cfg = load_corpus("xyzu")
        assert validate(cfg) == validate(cfg)

    @pytest.mark.parametrize("mutate,expected", list(SINGLE_FAULTS.values()),
                             ids=list(SINGLE_FAULTS))
    def test_single_fault(self, mutate, expected):
        violations = validate(mutate(load_corpus("xyz")))
        assert [(v.code, v.subject) for v in violations] == expected

    def test_single_faults_cover_every_code(self):
        codes = emitted_codes()
        assert len(codes) == 20
        assert all(len(expected) == 1 for _, expected in SINGLE_FAULTS.values())
        assert {expected[0][0] for _, expected in SINGLE_FAULTS.values()} == codes


class TestRoundTrip:
    def test_unknown_keys_collected(self):
        doc = serialize_configuration(load_corpus("xyz"))
        doc["favourite_color"] = "blue"
        doc["components"][0]["extra"] = 1
        result = parse_configuration(doc)
        assert sorted(result.unknown_keys) == ["components[0].extra", "favourite_color"]
        assert result.configuration is not None

    def test_malformed_document(self):
        result = parse_configuration({"n": "three"})
        assert result.configuration is None
        assert any(v.code == "malformed-document" for v in result.violations)
        assert parse_configuration([1, 2, 3]).configuration is None
        assert parse_configuration({"n": 3}).configuration is None  # missing keys
        doc = serialize_configuration(load_corpus("xyz"))
        ragged = json.loads(json.dumps(doc))
        ragged["special_points"][0]["iota"] = [[1, 0], [-1]]
        cases = [(ragged, "special_points[0].iota")] + [
            (dict(doc, polar_data=polar), "polar_data")
            for polar in ([[1]], [[1, True]], {"0": [1, 0]})]
        for bad, path in cases:
            result = parse_configuration(bad)
            assert result.configuration is None
            assert [(v.code, v.subject) for v in result.violations] \
                == [("malformed-document", path)]

    def test_every_malformed_position_reported(self):
        doc = {
            "n": 3, "original_n": "4", "original_s": 2, "surprise": 0,
            "components": [
                {"id": 5, "genus": 0, "transversal_rank": 1,
                 "loop_monodromies": [[[1], [1, 2]], [[True]], 7], "colour": "red"},
                {"genus": "0", "transversal_rank": None, "loop_monodromies": {}},
            ],
            "special_points": [
                {"id": "q1", "fq_rank_low": 0, "fq_rank_high": 1.0, "costalk_rank": "1",
                 "branches": [{"component_id": "S1", "monodromy": [[1.5]], "twist": 1},
                              {"component_id": "S1"}],
                 "iota": "x"},
                {"id": "q2", "fq_rank_low": 0, "fq_rank_high": 0, "branches": [1], "iota": []},
            ],
            "isolated_points": [{"id": "r1", "milnor_number": None, "depth": 2},
                                {"milnor_number": 1}],
            "polar_data": [[1]],
            "monodromy_data": {
                "char_poly": [1, "x"], "component_char_polys": 3, "note": "",
                "eigen_dims": [{"eigenvalue": 1, "total": 0, "components": [1]},
                               {"eigenvalue": "-1", "total": 0, "components": [1, None],
                                "extra": 1},
                               {"eigenvalue": "i", "weight": 2}],
                "jordan_sizes": [{"eigenvalue": "1", "total": 0, "components": [0],
                                  "weight": 2}],
            },
        }
        result = parse_configuration(doc)
        assert result.configuration is None
        expected = [
            ("original_n", "expected an integer"),
            ("components[0].id", "expected a string"),
            ("components[0].loop_monodromies[0]", "ragged rows in matrix literal"),
            ("components[0].loop_monodromies[1]", "matrix entries must be integers"),
            ("components[0].loop_monodromies[2]", "expected a matrix as nested row lists"),
            ("components[1].id", "missing required key"),
            ("components[1].genus", "expected an integer"),
            ("components[1].transversal_rank", "expected an integer"),
            ("components[1].loop_monodromies", "expected a list of matrices"),
            ("special_points[0].fq_rank_high", "expected an integer"),
            ("special_points[0].costalk_rank", "expected an integer"),
            ("special_points[0].branches[0].monodromy", "matrix entries must be integers"),
            ("special_points[0].branches[1].monodromy", "missing required key"),
            ("special_points[0].iota", "expected a matrix as nested row lists"),
            ("special_points[1].branches[0]", "expected an object"),
            ("isolated_points[0].milnor_number", "expected an integer"),
            ("isolated_points[1].id", "missing required key"),
            ("polar_data", "expected a list of [lambda_k, clk_betti_k] integer pairs"),
            ("monodromy_data.char_poly",
             "expected a polynomial as an ascending coefficient list"),
            ("monodromy_data.component_char_polys", "expected a list of polynomials"),
            ("monodromy_data.eigen_dims[0].eigenvalue", "expected a string"),
            ("monodromy_data.eigen_dims[1].components", "expected a list of integers"),
            ("monodromy_data.eigen_dims[2].total", "missing required key"),
            ("monodromy_data.eigen_dims[2].components", "missing required key"),
        ]
        assert [(v.code, v.subject, v.detail) for v in result.violations] \
            == [("malformed-document", path, detail) for path, detail in expected]
        assert result.unknown_keys == (
            "surprise", "components[0].colour", "special_points[0].branches[0].twist",
            "isolated_points[0].depth", "monodromy_data.note",
            "monodromy_data.eigen_dims[1].extra", "monodromy_data.eigen_dims[2].weight",
            "monodromy_data.jordan_sizes[0].weight")
        result = parse_configuration(dict(doc, monodromy_data=[]))
        assert [(v.subject, v.detail) for v in result.violations] \
            == [(path, detail) for path, detail in expected
                if not path.startswith("monodromy_data")] \
            + [("monodromy_data", "expected an object")]
        assert result.unknown_keys == (
            "surprise", "components[0].colour", "special_points[0].branches[0].twist",
            "isolated_points[0].depth")

    def test_non_object_record_reported_at_its_index(self):
        # the other items of the list are still read
        doc = serialize_configuration(load_corpus("xyz"))
        doc["components"][0]["genus"] = "x"
        doc["components"].append(7)
        result = parse_configuration(doc)
        assert result.configuration is None
        assert [(v.code, v.subject, v.detail) for v in result.violations] == [
            ("malformed-document", "components[0].genus", "expected an integer"),
            ("malformed-document", "components[3]", "expected an object")]

    def test_isolated_points_required(self):
        cfg = load_corpus("xyz")
        kept = {f: getattr(cfg, f) for f in cfg._fields if f != "isolated_points"}
        with pytest.raises(TypeError):
            SliceConfiguration(**kept)
        doc = serialize_configuration(cfg)
        del doc["isolated_points"]
        assert [(v.subject, v.detail) for v in parse_configuration(doc).violations] \
            == [("isolated_points", "missing required key")]

    def test_record_keys_are_fields(self):
        with pytest.raises(KeyError):
            loader._Record(IsolatedPoint, ("id", loader._STR), ("depth", loader._INT))

    def test_null_costalk_treated_as_absent(self):
        doc = serialize_configuration(load_corpus("xyz"))
        doc["special_points"][0]["costalk_rank"] = None
        result = parse_configuration(doc)
        assert result.violations == ()
        assert result.configuration.special_points[0].costalk_rank is None

    def test_empty_iota_shapes(self):
        cfg = load_corpus("x2z_y2u")
        assert cfg.special_points[0].iota == IntegerMatrix.zeros(0, 0)


# Every record type that a public function returns is immutable: each public
# class that is not an exception, and the results of `load_bytes` and
# `smith_normal_form`.  The checked ones reject bad values however they are
# built, and are not concatenated or repeated as the tuples they are.
RECORDS = {name: getattr(vancoh, name) for name in vancoh.__all__
           if isinstance(getattr(vancoh, name), type)
           and not issubclass(getattr(vancoh, name), Exception)}
RECORDS.update(ParseResult=loader.ParseResult, SNFResult=linalg.SNFResult)
RECORD_TYPES = sorted(RECORDS)
CHECKED = {"IntegerMatrix": {"rows": -1}, "FinAbGroup": {"torsion": (2, 3)},
           "IntPolynomial": {"coeffs": (1, 0)},
           "Report": {"validation": (vancoh.Violation("negative-rank", "S"),)}}


def record_samples() -> dict:
    """A fresh instance of each public record type, by name, most of them
    from xyz."""
    cfg = load_corpus("xyz")
    v = vancoh.analyze(cfg)
    q = cfg.special_points[0]
    md = cfg.monodromy_data
    return {"IntegerMatrix": q.iota, "FinAbGroup": vancoh.FinAbGroup(1, (2, 4)),
            "Submodule": v.components[0].invariants, "IntPolynomial": md.char_poly,
            "Branch": q.branches[0], "CurveComponent": cfg.components[0], "SpecialPoint": q,
            "IsolatedPoint": IsolatedPoint("r1", 4), "EigenvalueData": md.eigen_dims[0],
            "MonodromyData": md, "SliceConfiguration": cfg,
            "Violation": vancoh.Violation("negative-rank", "S", "detail"),
            "Bounds": v.bounds, "ComponentCohomology": v.components[0],
            "MonodromyChecks": v.monodromy, "SixTermCheck": v.six_term, "VanishingReport": v,
            "Report": vancoh.Report("xyz", (), v),
            "ParseResult": vancoh.load_bytes(dict(bundled())["xyz"].read_bytes()),
            "SNFResult": vancoh.smith_normal_form(q.iota)}


@pytest.mark.parametrize("name", RECORD_TYPES)
def test_record_contract(name):
    one, other = record_samples()[name], record_samples()[name]
    cls = RECORDS[name]
    assert cls.__doc__
    assert type(one) is cls and one is not other
    assert one == other and hash(one) == hash(other)
    for attribute in (cls._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(one, attribute, None)
    assert type(one._replace()) is cls and one._replace() == one
    bad = CHECKED.get(name)
    if bad is not None:
        values = {**one._asdict(), **bad}
        for build in (lambda: cls(**values), lambda: one._replace(**bad),
                      lambda: cls._make(values.values())):
            with pytest.raises(ValueError):
                build()
        with pytest.raises(TypeError):
            one + one
        with pytest.raises(TypeError):
            2 * one
