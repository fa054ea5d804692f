import copy
import errno
import hashlib
import json
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import vancoh
from vancoh import (Bounds, FinAbGroup, InternalDefectError, Report, SixTermCheck, Violation,
                    analyze, format_group, load_bytes, load_path, parse_configuration,
                    serialize_configuration)
from vancoh.cli import main, run
from vancoh.corpus import bundled
from vancoh.loader import ParseResult
from vancoh.report import render_json, render_text, report_to_dict

from helpers import (corpus_documents, count_calls, document_slots, load_corpus,
                     mutated_document)


CORPUS = {name: path for name, path in bundled()}


def copy_corpus(tmp_path, name, new_name=None):
    dst = tmp_path / (new_name or f"{name}.json")
    shutil.copyfile(str(CORPUS[name]), dst)
    return dst


class TestFormatGroup:
    def test_trivial(self):
        assert format_group(FinAbGroup(0, ())) == "0"

    def test_free(self):
        assert format_group(FinAbGroup(3, ())) == "Z^3"

    def test_mixed(self):
        assert format_group(FinAbGroup(1, (2, 6))) == "Z^1 (+) Z/2 (+) Z/6"

    def test_torsion_only(self):
        assert format_group(FinAbGroup(0, (4,))) == "Z/4"


class TestRun:
    def test_corpus_file(self, tmp_path):
        reports, status = run([str(copy_corpus(tmp_path, "xyz"))])
        assert status == 0
        assert format_group(reports[0].vanishing.lowest_group) == "Z^2"

    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.json"
        path.write_text(block)
        reports, status = run([str(path)])
        assert status == 0
        assert reports[0].validation == () and reports[0].vanishing is not None

    def test_validation_failure_exit_1(self, tmp_path):
        doc = json.loads(CORPUS["xyz"].read_text())
        doc["components"][0]["loop_monodromies"] = [[[2]]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        reports, status = run([str(bad)])
        assert status == 1
        assert [v.code for v in reports[0].validation] == ["loop-not-unimodular"]
        assert reports[0].vanishing is None

    def test_mixed_batch(self, tmp_path):
        good = copy_corpus(tmp_path, "xyzu")
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        reports, status = run([str(good), str(broken)])
        assert status == 1
        assert len(reports) == 2
        assert reports[0].vanishing is not None
        assert reports[1].validation[0].code == "malformed-document"

    @pytest.mark.parametrize("hostile", [
        b'{"n": ' + b"7" * 5000 + b"}",  # past the interpreter's int digit limit
        b"[" * 100_000,                  # past the decoder's nesting limit
    ], ids=["long-integer", "deep-nesting"])
    def test_hostile_document_gets_one_report(self, tmp_path, hostile):
        path = tmp_path / "hostile.json"
        path.write_bytes(hostile)
        good = copy_corpus(tmp_path, "xyz")
        reports, status = run([str(path), str(good)])
        assert status == 1
        assert len(reports) == 2
        assert [v.code for v in reports[0].validation] == ["malformed-document"]
        assert reports[1].validation == () and reports[1].vanishing is not None

    @pytest.mark.parametrize("flags", [{}, {"costalk_required": True}, {"compute": False}],
                             ids=["compute", "costalk-required", "validate"])
    def test_validates_each_document_once(self, tmp_path, monkeypatch, flags):
        calls = count_calls(monkeypatch, vancoh.model, "_validate")
        paths = [str(copy_corpus(tmp_path, name)) for name in ("xyz", "xyzu", "x2z_y2u")]
        run(paths, **flags)
        assert len(calls) == len(paths)

    def test_unreadable(self, tmp_path):
        # the detail is the operating system's reason, and no report names the path
        where = tmp_path / "distinctive-dir-q7x"
        where.mkdir()
        [report], status = run([str(where / "missing.json")])
        assert status == 1
        assert [(v.code, v.subject, v.detail) for v in report.validation] == [
            ("unreadable-file", "document", os.strerror(errno.ENOENT))]
        for verbose in (False, True):
            for text in (render_json([report], verbose), render_text(report, verbose)):
                assert "distinctive-dir-q7x" not in text

    def test_loader_reads_each_path_once(self, tmp_path, monkeypatch):
        calls = count_calls(monkeypatch, vancoh.cli, "load_path")
        paths = [str(copy_corpus(tmp_path, name)) for name in ("xyz", "xyzu", "x2z_y2u")]
        paths.append(str(tmp_path / "missing.json"))
        run(paths)
        assert calls == [(p,) for p in paths]

    def test_defect_exit_2(self, tmp_path):
        doc = {
            "n": 3, "original_n": 3, "original_s": 2,
            "components": [{"id": "S", "genus": 0, "transversal_rank": 1,
                            "loop_monodromies": [[[1]]]}],
            "special_points": [{"id": "q",
                                "branches": [{"component_id": "S", "monodromy": [[-1]]}],
                                "fq_rank_low": 0, "fq_rank_high": 0, "iota": []}],
            "isolated_points": [],
        }
        path = tmp_path / "defect.json"
        path.write_text(json.dumps(doc))
        reports, status = run([str(path)])
        assert status == 2
        assert reports[0].defect is not None
        assert reports[0].validation == ()
        doc_out = json.loads(render_json(reports))[0]
        assert doc_out["defect"] == reports[0].defect
        assert "vanishing" not in doc_out
        assert f"  DEFECT: {reports[0].defect}\n" in render_text(reports[0])
        # a missing costalk is reported before the computation that would fail
        reports, status = run([str(path)], costalk_required=True)
        assert status == 1
        assert [v.code for v in reports[0].validation] == ["missing-costalk"]

    def test_polar_bounds_rendered(self, tmp_path):
        doc = json.loads(CORPUS["quadric_power_2_2"].read_text())
        doc["polar_data"] = [[3, 1], [0, 0]]
        path = tmp_path / "polar.json"
        path.write_text(json.dumps(doc))
        reports, status = run([str(path)])
        assert status == 0
        text = render_text(reports[0])
        assert "  polar bound: b_(n-0)(F) <= 4\n  polar bound: b_(n-1)(F) <= 0\n" in text
        assert json.loads(render_json(reports))[0]["vanishing"]["bounds"]["polar"] \
            == [[0, 4], [1, 0]]

    def test_strict_unknown_keys(self, tmp_path):
        doc = json.loads(CORPUS["xyz"].read_text())
        doc["surprise"] = 1
        path = tmp_path / "extra.json"
        path.write_text(json.dumps(doc))
        reports, status = run([str(path)], strict=True)
        assert status == 1
        assert reports[0].validation[0].code == "unknown-key"
        reports, status = run([str(path)], strict=False)
        assert status == 0
        assert reports[0].warnings == ("surprise",)

    def test_costalk_required(self, tmp_path):
        path = copy_corpus(tmp_path, "x2z_y2u")
        reports, status = run([str(path)], costalk_required=True)
        assert status == 1
        assert {v.code for v in reports[0].validation} == {"missing-costalk"}
        _, status = run([str(path)])
        assert status == 0


class TestLoader:
    """`load_bytes` gives one `ParseResult` whatever the bytes; `load_path`
    adds only the unreadable file."""

    @pytest.mark.parametrize("raw", [
        b'{"n": 3, "id": "\xff"}',
        b"{not json",
        b'{"n": ' + b"7" * 4400 + b"}",  # past the interpreter's int digit limit
        b"[" * 100_000,                  # past the decoder's nesting limit
    ], ids=["bad-utf8", "invalid-json", "long-integer", "deep-nesting"])
    def test_decoder_failure_is_one_violation(self, raw):
        result = load_bytes(raw)
        assert isinstance(result, ParseResult)
        assert result.configuration is None and result.unknown_keys == []
        [v] = result.violations
        assert (v.code, v.subject) == ("malformed-document", "document")
        assert v.detail.startswith("malformed document: ")

    def test_non_object_top_level_keeps_its_violation(self):
        result = load_bytes(b"[1, 2]")
        assert result.configuration is None and result.unknown_keys == []
        assert [(v.code, v.subject, v.detail) for v in result.violations] == [
            ("malformed-document", "", "expected an object")]

    def test_load_path_errs_only_on_unreadable_file(self, tmp_path):
        result, error = load_path(tmp_path / "missing.json")
        assert result is None and error == os.strerror(errno.ENOENT)
        assert load_path(CORPUS["xyzu"]) == (load_bytes(CORPUS["xyzu"].read_bytes()), None)

    @pytest.mark.parametrize("raw", [
        CORPUS["xyzu"].read_bytes(),
        b"[1, 2]",
        b'{"n": 3, "id": "\xff"}',
    ], ids=["corpus", "non-object", "bad-utf8"])
    def test_load_bytes_hashes_the_bytes(self, raw):
        assert load_bytes(raw).input_sha256 == hashlib.sha256(raw).hexdigest()

    def test_decoded_document_carries_no_digest(self):
        assert parse_configuration(json.loads(CORPUS["xyzu"].read_text())).input_sha256 == ""

    def test_int_subclass_is_not_an_integer(self):
        class Count(int):
            pass

        doc = json.loads(CORPUS["xyz"].read_text())
        doc["n"] = Count(3)
        result = parse_configuration(doc)
        assert result.configuration is None
        assert [(v.code, v.subject, v.detail) for v in result.violations] == [
            ("malformed-document", "n", "expected an integer")]


def _is_matrix(value):
    return isinstance(value, list) and all(
        isinstance(row, list) and all(type(x) is int for x in row) for row in value)


MUTATIONS = ("truncate", "flip", "insert", "delete-key", "swap-type", "set-integer",
             "resize-matrix")
JSON_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-3, 16), st.floats(),
                        st.text(max_size=3), st.just([]), st.just({}), st.just([[1]]))


@st.composite
def corpus_mutants(draw):
    """A small corpus document with one byte-level or structural mutation;
    integers and matrix sizes stay at most 16."""
    raw = CORPUS[draw(st.sampled_from(("xyz", "x2z_y2u", "quadric_power_2_2")))].read_bytes()
    kind = draw(st.sampled_from(MUTATIONS))
    if kind in ("truncate", "flip", "insert"):
        i = draw(st.integers(0, len(raw) - 1))
        if kind == "truncate":
            return raw[:i]
        if kind == "flip":
            return raw[:i] + bytes([raw[i] ^ 1 << draw(st.integers(0, 7))]) + raw[i + 1:]
        return raw[:i] + bytes([draw(st.integers(0, 255))]) + raw[i:]
    doc = json.loads(raw)
    wanted = {"delete-key": lambda c, k: isinstance(c, dict),
              "swap-type": lambda c, k: True,
              "set-integer": lambda c, k: type(c[k]) is int,
              "resize-matrix": lambda c, k: _is_matrix(c[k])}[kind]
    container, key = draw(st.sampled_from([s for s in document_slots(doc) if wanted(*s)]))
    if kind == "delete-key":
        del container[key]
    elif kind == "swap-type":
        old = type(container[key])
        container[key] = draw(JSON_VALUES.filter(lambda v: type(v) is not old))
    elif kind == "set-integer":
        container[key] = draw(st.integers(-3, 16))
    else:
        cols = draw(st.integers(0, 16))
        container[key] = draw(st.lists(st.lists(st.integers(-3, 3), min_size=cols,
                                                max_size=cols), max_size=16))
    return json.dumps(doc).encode()


JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-16, 16), st.floats(), st.text(max_size=4)),
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.dictionaries(st.text(max_size=4), children, max_size=4)),
    max_leaves=16)


@st.composite
def arbitrary_values(draw):
    """A small corpus document with one position holding an arbitrary JSON
    value; integers and container sizes stay at most 16."""
    doc = json.loads(CORPUS[draw(st.sampled_from(("xyz", "x2z_y2u", "quadric_power_2_2")))]
                     .read_bytes())
    container, key = draw(st.sampled_from(list(document_slots(doc))))
    container[key] = draw(JSON_TREES)
    return json.dumps(doc).encode()


def assert_one_report_each(tmp_path, data):
    """``data`` as a file before a valid xyz: one report each, the second
    clean, an exit status in {0, 1, 2} and both renderers working."""
    path = tmp_path / "mutant.json"
    path.write_bytes(data)
    good = CORPUS["xyz"]
    reports, status = run([str(path), str(good)])
    assert status in (0, 1, 2)
    assert len(reports) == 2
    assert reports[1].validation == () and reports[1].defect is None
    assert reports[1].vanishing is not None
    render_json(reports, True)
    for r in reports:
        render_text(r, True)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corpus_mutants())
def test_mutated_document_gets_one_report(tmp_path, mutant):
    assert_one_report_each(tmp_path, mutant)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.binary(max_size=256), arbitrary_values()))
def test_raw_bytes_and_arbitrary_values_get_one_report(tmp_path, data):
    assert_one_report_each(tmp_path, data)


@settings(max_examples=400, deadline=None)
@given(corpus_mutants())
def test_parsed_mutants_round_trip(mutant):
    """Every configuration a mutant parses to, valid or not, survives
    serialize -> JSON -> parse unchanged."""
    cfg = load_bytes(mutant).configuration
    if cfg is not None:
        again = parse_configuration(json.loads(json.dumps(serialize_configuration(cfg))))
        assert (again.configuration, again.violations, again.unknown_keys) == (cfg, [], [])


RANK_DOCUMENTS = corpus_documents()


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(0, 7), st.sampled_from((0, -1, -2)))
def test_nonpositive_rank_gives_one_violation(tmp_path, seed, mutate, pick, rank):
    """A corpus document or a `mutated_document` mutant with one component's
    transversal rank set to 0, -1 or -2: one report each, and when the
    document parses, one `transversal-rank` violation for that component
    and no `branch-shape` violation at its branches."""
    rng = random.Random(seed)
    doc = mutated_document(rng, RANK_DOCUMENTS) if mutate else copy.deepcopy(
        rng.choice(RANK_DOCUMENTS))
    components = doc.get("components") if isinstance(doc, dict) else None
    assume(isinstance(components, list))
    candidates = [c for c in components if isinstance(c, dict) and isinstance(c.get("id"), str)]
    assume(candidates)
    target = candidates[pick % len(candidates)]
    target["transversal_rank"] = rank
    cid = target["id"]
    # another component of this id with a rank below 1 is reported under it too
    assume(all(type(c.get("transversal_rank")) is int and c["transversal_rank"] >= 1
               for c in candidates if c is not target and c["id"] == cid))
    path = tmp_path / "rank.json"
    raw = json.dumps(doc).encode()
    path.write_bytes(raw)
    cfg = load_bytes(raw).configuration
    for compute in (True, False):
        reports, status = run([str(path)], compute=compute)
        assert len(reports) == 1 and status in (0, 1, 2)
        if cfg is None:
            continue
        codes = [(v.code, v.subject) for v in reports[0].validation]
        assert codes.count(("transversal-rank", cid)) == 1
        own = {f"{q.id}[branch {k}]" for q in cfg.special_points
               for k, b in enumerate(q.branches) if b.component_id == cid}
        assert not [s for code, s in codes if code == "branch-shape" and s in own]


def _containers(value):
    """Every dict and list nested in `value`, through tuples too."""
    if isinstance(value, (dict, list)):
        yield value
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _containers(item)
    elif isinstance(value, dict):
        for item in value.values():
            yield from _containers(item)


class TestReportToDict:
    def test_sections_are_fresh_containers(self):
        doc = json.loads(CORPUS["xyz"].read_text())
        doc["polar_data"] = [[1, 0], [0, 1]]
        cfg = parse_configuration(doc).configuration
        computed = Report("xyz", (), analyze(cfg))
        invalid = Report("bad", (Violation("negative-rank", "S"),
                                 Violation("iota-shape", "q", "2x1")), None)
        for report, section, least in ((computed, "vanishing", 20), (invalid, "validation", 3)):
            first = report_to_dict(report, verbose=True)
            expected = copy.deepcopy(first)
            containers = list(_containers(first[section]))
            assert len(containers) >= least
            for c in containers:
                if isinstance(c, dict):
                    for key in c:
                        c[key] = "mutated"
                    c["added"] = 1
                else:
                    c[:] = ["mutated"]
            assert report_to_dict(report, verbose=True) == expected
        assert computed.vanishing == analyze(cfg)
        assert invalid.validation == (Violation("negative-rank", "S"),
                                      Violation("iota-shape", "q", "2x1"))

    def test_violations_and_results_raise(self):
        with pytest.raises(ValueError,
                           match="^a report with violations must not carry results$"):
            Report("xyz", (Violation("negative-rank", "S"),), analyze(load_corpus("xyz")))

    def test_sections_carry_dataclass_fields(self):
        reports, _ = run([str(CORPUS["xyzu"])])
        v = report_to_dict(reports[0])["vanishing"]
        assert set(v["six_term"]) == {f.name for f in fields(SixTermCheck)} | {"top_pair_torsion"}
        assert set(v["bounds"]) == {f.name for f in fields(Bounds)}


def test_one_version(tmp_path):
    # reports carry vancoh.__version__ as their provenance; the packaging
    # metadata states the version separately, and the two must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == vancoh.__version__
    [report] = run([str(copy_corpus(tmp_path, "xyz"))])[0]
    assert report_to_dict(report)["provenance"]["version"] == vancoh.__version__


class TestDeterminism:
    def test_identical_bytes_identical_reports(self, tmp_path):
        a = copy_corpus(tmp_path, "xyzu", "first.json")
        b = copy_corpus(tmp_path, "xyzu", "second_name_entirely.json")
        reports, _ = run([str(a), str(b)])
        ra = render_json([reports[0]])
        rb = render_json([reports[1]])
        assert ra == rb

    def test_repeat_runs_byte_equal(self, tmp_path):
        path = copy_corpus(tmp_path, "xyz")
        out1 = render_json(run([str(path)])[0])
        out2 = render_json(run([str(path)])[0])
        assert out1 == out2


class TestMainEntry:
    def test_compute_text(self, tmp_path, capsys):
        path = copy_corpus(tmp_path, "xyz")
        assert main(["compute", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Z^2" in out
        assert "lowest vanishing group" in out

    def test_compute_json(self, tmp_path, capsys):
        path = copy_corpus(tmp_path, "xyzu")
        assert main(["compute", "--format", "json", str(path)]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["vanishing"]["lowest_group"]["text"] == "Z^3"
        assert docs[0]["vanishing"]["six_term"]["domain"] == 14

    def test_validate_subcommand(self, tmp_path, capsys):
        path = copy_corpus(tmp_path, "xyz")
        assert main(["validate", str(path)]) == 0
        out = capsys.readouterr().out
        assert "lowest vanishing" not in out

    def test_validate_costalk_required(self, tmp_path, capsys):
        path = copy_corpus(tmp_path, "x2z_y2u")
        assert main(["validate", "--costalk-required", str(path)]) == 1
        assert "missing-costalk" in capsys.readouterr().out
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()

    def test_corpus_subcommand(self, capsys):
        assert main(["corpus"]) == 0
        out = capsys.readouterr().out
        assert out.count(": ok") == 6

    def test_corpus_json_stdout_is_json(self, capsys):
        assert main(["corpus", "--format", "json"]) == 0
        captured = capsys.readouterr()
        assert len(json.loads(captured.out)) == 6
        assert captured.err.count(": ok") == 6

    @pytest.mark.parametrize("flag", ["--strict", "--costalk-required"])
    def test_corpus_rejects_document_flags(self, capsys, flag):
        with pytest.raises(SystemExit) as exc:
            main(["corpus", flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="euler_total and betti_high sum the Milnor numbers into an "
                              "integer past the interpreter's string conversion limit")
    def test_derived_integer_past_digit_limit_gets_one_report(self, tmp_path, capsys):
        doc = json.loads(Path(CORPUS["quadric_power_2_2"]).read_text())
        doc["isolated_points"] = [{"id": p, "milnor_number": 10 ** 4300 - 1} for p in "PQ"]
        path = tmp_path / "huge_milnor.json"
        path.write_text(json.dumps(doc))
        main(["compute", "--format", "json", str(path)])
        assert len(json.loads(capsys.readouterr().out)) == 1

    @pytest.mark.xfail(strict=True, raises=ValueError,
                       reason="the loop-count detail renders 2*genus + branches and the "
                              "dimension-reduction detail original_n - original_s + 2, "
                              "integers past the interpreter's string conversion limit")
    @pytest.mark.parametrize("edit", [
        lambda doc: doc["components"][0].update(genus="HUGE"),
        lambda doc: doc.update(original_n="HUGE", original_s=-1),
    ], ids=["loop-count", "dimension-reduction"])
    def test_derived_integer_in_violation_detail_gets_one_report(self, tmp_path, capsys, edit):
        # the decoder accepts a 4,300-digit literal; json.dumps could not write it
        doc = json.loads(Path(CORPUS["xyz"]).read_text())
        edit(doc)
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc).replace('"HUGE"', "9" * 4300))
        for command in ("validate", "compute"):
            assert main([command, "--format", "json", str(path)]) == 1
            assert len(json.loads(capsys.readouterr().out)) == 1

    def test_matrix_suppression(self, tmp_path, capsys):
        path = copy_corpus(tmp_path, "xyzu")  # j matrix is 12x14
        assert main(["compute", str(path)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" in out
        assert main(["compute", "--verbose", str(path)]) == 0
        out = capsys.readouterr().out
        assert "suppressed" not in out

    @pytest.mark.parametrize("encoding", [None, "utf-8"])
    @pytest.mark.parametrize("swap, shown", [('"n": 3,', '"\\ud800": 1, "n": 3,'),
                                             ('"S1"', '"\\udcff"')], ids=["key", "id"])
    def test_lone_surrogate_is_printed_escaped(self, tmp_path, swap, shown, encoding):
        # JSON admits an escaped lone surrogate; an extra top-level key keeps
        # it as a warning and a component id carries it into the report
        path = tmp_path / "surrogate.json"
        path.write_text(Path(CORPUS["xyz"]).read_text().replace(swap, shown))
        root = Path(__file__).resolve().parent.parent
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"),
                                                         os.environ.get("PYTHONPATH")]))
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        outs = []
        for command in ("validate", "compute"):
            proc = subprocess.run([sys.executable, "-m", "vancoh.cli", command, str(path)],
                                  env=env, capture_output=True, timeout=60)
            assert proc.returncode == 0, proc.stderr.decode(errors="replace")
            outs.append(proc.stdout.decode("utf-8"))
        assert [out.count("configuration ") for out in outs] == [1, 1]
        assert shown.split('"')[1] in outs[1]  # compute prints unknown keys and component ids


def plant_mismatch(monkeypatch):
    expected = {**vancoh.corpus.EXPECTED}
    expected["xyz"] = {**expected["xyz"], "group": "Z^3"}
    monkeypatch.setattr(vancoh.corpus, "EXPECTED", expected)
    return "corpus FAILURE xyz: mismatch {'group': ('Z^2', 'Z^3')}\n"


def plant_defect(monkeypatch):
    xyz = load_corpus("xyz")

    def analyze_with_defect(cfg):
        if cfg == xyz:
            raise InternalDefectError("planted defect")
        return analyze(cfg)

    monkeypatch.setattr(vancoh.cli, "analyze", analyze_with_defect)
    return "corpus FAILURE xyz: no result (defect)\n"


class TestCorpusFailures:
    """The corpus run names each failing germ, and exits 1 on a mismatch and
    2 on an internal defect."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("plant,status", [(plant_mismatch, 1), (plant_defect, 2)],
                             ids=["mismatch", "defect"])
    def test_failure_line_and_exit_status(self, monkeypatch, capsys, plant, status, fmt):
        line = plant(monkeypatch)
        assert main(["corpus", "--format", fmt]) == status
        captured = capsys.readouterr()
        log = captured.err if fmt == "json" else captured.out
        assert log.count(line) == 1
        assert log.count(": ok") == 5
        assert "corpus xyz: ok" not in log
        if fmt == "json":
            assert len(json.loads(captured.out)) == 6


def test_corpus_checks_the_report_document(monkeypatch, capsys):
    """The corpus run reads its five fields from `report_to_dict`'s document."""
    [xyz], _ = run([str(CORPUS["xyz"])])

    def wrong_domain(report, verbose=False):
        doc = report_to_dict(report, verbose)
        if report.configuration_id == xyz.configuration_id:
            doc["vanishing"]["six_term"]["domain"] += 1
        return doc

    monkeypatch.setattr(vancoh.cli, "report_to_dict", wrong_domain)
    assert main(["corpus"]) == 1
    out = capsys.readouterr().out
    assert out.count("corpus FAILURE xyz: mismatch {'domain': (6, 5)}\n") == 1
    assert out.count(": ok") == 5
