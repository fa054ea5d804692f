import copy
import errno
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter, namedtuple
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import vancoh
from vancoh import (Bounds, FinAbGroup, InternalDefectError, Report, SixTermCheck, Violation,
                    analyze, format_group, load_bytes, load_path, parse_configuration,
                    serialize_configuration)
from vancoh.cli import main, run
from vancoh.corpus import bundled
from vancoh.loader import ParseResult
from vancoh.report import render_json, render_text, report_to_dict

from helpers import (SINGLE_FAULTS, corpus_documents, count_calls, document_slots,
                     emitted_codes, load_corpus, pipeline_documents)


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
    def test_readme_example(self, tmp_path):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        [block] = re.findall(r"```json\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.json"
        path.write_text(block)
        reports, status = run([str(path)])
        assert status == 0
        assert reports[0].validation == () and reports[0].vanishing is not None

    def test_mixed_batch(self, tmp_path):
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        reports, status = run([str(CORPUS["xyzu"]), str(broken)])
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

    def test_unreadable(self, tmp_path, monkeypatch):
        # the detail is the operating system's reason, and no report names the path
        path = str(tmp_path / "distinctive-dir-q7x" / "missing.json")
        loads = count_calls(monkeypatch, vancoh.cli, "load_path")
        [report], status = run([path])
        assert status == 1 and loads == [(path,)]
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


# the first five do not decode; the last two decode to a non-object
DECODER = {
    "bad-utf8": b'{"n": 3, "id": "\xff"}',
    "invalid-json": b"{not json",
    "empty": b"",
    "long-integer": b'{"n": ' + b"7" * 4400 + b"}",  # past the interpreter's int digit limit
    "deep-nesting": b"[" * 100_000,                  # past the decoder's nesting limit
    "non-object": b"[1, 2]",
    "null": b"null",
}


class TestLoader:
    """`load_bytes` gives one `ParseResult` whatever the bytes; `load_path`
    adds only the unreadable file."""

    @pytest.mark.parametrize("raw", list(DECODER.values())[:5], ids=list(DECODER)[:5])
    def test_decoder_failure_is_one_violation(self, raw):
        result = load_bytes(raw)
        assert isinstance(result, ParseResult)
        assert result.configuration is None and result.unknown_keys == []
        [v] = result.violations
        assert (v.code, v.subject) == ("malformed-document", "document")
        assert v.detail.startswith("malformed document: ")

    def test_non_object_top_level_keeps_its_violation(self):
        result = load_bytes(DECODER["non-object"])
        assert result.configuration is None and result.unknown_keys == []
        assert [(v.code, v.subject, v.detail) for v in result.violations] == [
            ("malformed-document", "", "expected an object")]

    def test_load_path_errs_only_on_unreadable_file(self, tmp_path):
        result, error = load_path(tmp_path / "missing.json")
        assert result is None and error == os.strerror(errno.ENOENT)
        assert load_path(CORPUS["xyzu"]) == (load_bytes(CORPUS["xyzu"].read_bytes()), None)

    @pytest.mark.parametrize("raw", [
        CORPUS["xyzu"].read_bytes(),
        DECODER["non-object"],
        DECODER["bad-utf8"],
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


def status_of(report):
    """The exit status of a run that gives this one report."""
    return 2 if report.defect is not None else 1 if report.validation else 0


def assert_one_report_each(tmp_path, data):
    """``data`` as a file before a valid xyz: one report each, the second
    clean, the exit status of the first and both renderers working."""
    path = tmp_path / "mutant.json"
    path.write_bytes(data)
    reports, status = run([str(path), str(CORPUS["xyz"])])
    assert len(reports) == 2
    assert status == status_of(reports[0])
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


# The document table: each source's documents run through `cli.run` under six
# settings, and each rule of the command line is one check on every source.
FLAGS = {"default": {}, "strict": {"strict": True}, "costalk": {"costalk_required": True}}
SETTINGS = [(command, flag) for command in ("compute", "validate") for flag in FLAGS]
SOURCES = {"corpus": (6, {0, 1}), "filled": (6, {0, 1}), "faults": (31, {1}),
           "decoder": (7, {1}), "pipeline": (1155, {0, 1, 2})}  # documents, exit statuses
DIRECTORY = "table-dir-q7x"
# a run's first report and status, its calls of `model._validate` and
# `cli.load_path`, and the verbose JSON of its reports and text of the first
Run = namedtuple("Run", "report status validations loads json text")
# `renamed` is the verbose JSON of a default compute run on a copy of `raw`
Document = namedtuple("Document", "raw parsed runs renamed")


def source_documents(source):
    """The bundled files; the filled corpus documents with an unknown key;
    xyz under each `SINGLE_FAULTS` row; `DECODER`; or the pipeline set."""
    if source == "corpus":
        return [path.read_bytes() for path in CORPUS.values()]
    if source == "filled":
        return [json.dumps(dict(doc, surprise=1)).encode() for doc in corpus_documents()[6:]]
    if source == "faults":
        return [json.dumps(serialize_configuration(mutate(load_corpus("xyz")))).encode()
                for mutate, _ in SINGLE_FAULTS.values()]
    return list(DECODER.values()) if source == "decoder" else pipeline_documents()


@pytest.fixture(scope="module", params=list(SOURCES))
def table(request, tmp_path_factory):
    """The source's name and its `Document`s."""
    count, statuses = SOURCES[request.param]
    raws = source_documents(request.param)
    assert len(raws) == count
    where = tmp_path_factory.mktemp(DIRECTORY)
    path, renamed = where / "document.json", where / "another name.json"
    documents = []
    with pytest.MonkeyPatch.context() as mp:
        validations = count_calls(mp, vancoh.model, "_validate")
        loads = count_calls(mp, vancoh.cli, "load_path")
        for raw in raws:
            path.write_bytes(raw)
            renamed.write_bytes(raw)
            runs = {}
            for command, flag in SETTINGS:
                del validations[:], loads[:]
                reports, status = run([str(path)], compute=command == "compute", **FLAGS[flag])
                runs[command, flag] = Run(reports[0], status, len(validations), len(loads),
                                          render_json(reports, True),
                                          render_text(reports[0], True))
            documents.append(Document(raw, load_bytes(raw), runs,
                                      render_json(run([str(renamed)])[0], True)))
    # the statuses the reports call for; `test_one_report_each` checks each run's
    assert {status_of(r.report) for d in documents for r in d.runs.values()} == statuses
    return request.param, documents


def test_one_report_each(table):
    """One report per run, whose exit status, JSON and verdict line agree;
    no rendering names the file's directory."""
    for doc in table[1]:
        for (command, _), r in doc.runs.items():
            [out] = json.loads(r.json)
            assert r.status == status_of(r.report)
            assert ("defect" in out, "vanishing" in out) == (
                r.status == 2, command == "compute" and r.status == 0)
            verdict = r.text.splitlines()[1 + len(r.report.warnings)]
            if "vanishing" in out:
                assert verdict.startswith("  lowest vanishing group (")
                assert verdict.endswith(": " + out["vanishing"]["lowest_group"]["text"])
            else:
                assert verdict.startswith({2: "  DEFECT:", 1: "  INVALID", 0: "  valid"}[r.status])
            assert DIRECTORY not in r.json + r.text


def test_reports_name_the_bytes(table):
    """Reports carry the bytes' sha256, and its first 12 hex digits as the
    id, whatever the file is called."""
    for doc in table[1]:
        digest = hashlib.sha256(doc.raw).hexdigest()
        for r in doc.runs.values():
            assert (r.report.input_sha256, r.report.configuration_id) == (digest, digest[:12])
        assert doc.renamed == doc.runs["compute", "default"].json


def test_read_and_validated_once(table):
    """Each run reads its file once, and validates once when the document
    assembles and strict mode does not stop it on unknown keys."""
    for doc in table[1]:
        for (_, flag), r in doc.runs.items():
            stopped = flag == "strict" and bool(doc.parsed.unknown_keys)
            assert (r.loads, r.validations) == (
                1, int(doc.parsed.configuration is not None and not stopped))


def test_compute_agrees_with_validate(table):
    """Under equal flags compute gives validate's violations and warnings,
    and status 0 or 2 exactly where validate gives 0."""
    for doc in table[1]:
        for flag in FLAGS:
            c, v = doc.runs["compute", flag], doc.runs["validate", flag]
            assert (c.report.validation, c.report.warnings) == (
                v.report.validation, v.report.warnings)
            assert (c.status in (0, 2)) == (v.status == 0)


def test_unknown_keys(table):
    """Unknown keys are warnings by default; strict mode reports them after
    the loader's violations, and no warnings."""
    for doc in table[1]:
        keys = doc.parsed.unknown_keys
        for command in ("compute", "validate"):
            default, strict = doc.runs[command, "default"], doc.runs[command, "strict"]
            assert (default.report.warnings, strict.report.warnings) == (tuple(keys), ())
            if keys:
                assert list(strict.report.validation) == doc.parsed.violations + [
                    Violation("unknown-key", key, "unknown key in strict mode") for key in keys]
            else:
                assert (strict.status, strict.json) == (default.status, default.json)


def test_costalk_required(table):
    """A valid document gets one `missing-costalk` per point without a
    costalk, in order; any other document its default report."""
    for doc in table[1]:
        valid = doc.runs["validate", "default"].status == 0
        missing = [("missing-costalk", q.id) for q in doc.parsed.configuration.special_points
                   if q.costalk_rank is None] if valid else []
        for command in ("compute", "validate"):
            default, required = doc.runs[command, "default"], doc.runs[command, "costalk"]
            if missing:
                assert [(v.code, v.subject) for v in required.report.validation] == missing
            else:
                assert (required.status, required.json) == (default.status, default.json)


def test_round_trip(table):
    """Every configuration assembled, valid or not, survives serialize, JSON and parse."""
    for doc in table[1]:
        cfg = doc.parsed.configuration
        if cfg is not None:
            again = parse_configuration(json.loads(json.dumps(serialize_configuration(cfg))))
            assert (again.configuration, again.violations, again.unknown_keys) == (cfg, [], [])


def test_rank_rule(table):
    """A component of rank below 1 gets one `transversal-rank` violation and
    none at its loops; no loop count or branch is checked against an id that
    is repeated or of rank below 1."""
    for doc in table[1]:
        cfg = doc.parsed.configuration
        if cfg is None:
            continue
        found = [(v.code, v.subject) for v in doc.runs["validate", "default"].report.validation]
        ids = Counter(c.id for c in cfg.components)
        low = Counter(c.id for c in cfg.components if c.transversal_rank < 1)
        for cid, k in low.items():
            assert found.count(("transversal-rank", cid)) == k
            if k == ids[cid]:  # no copy of this id has loops to check
                assert not [s for _, s in found if s.startswith(f"{cid}[loop ")]
        unranked = {cid for cid in ids if ids[cid] > 1 or cid in low}
        # a repeated point id gives one subject to several branches
        owners = [(f"{q.id}[branch {k}]", b.component_id)
                  for q in cfg.special_points for k, b in enumerate(q.branches)]
        assert all(s not in unranked for code, s in found if code == "loop-count")
        assert all(any(s == t and cid not in unranked for t, cid in owners)
                   for code, s in found if code.startswith("branch-"))


# sha256 of each run's status, verbose JSON and verbose text, in order; the
# decoder's own message after "malformed document: " is the interpreter's,
# so it is left out
DIGESTS = {
    "corpus": "3e122fad0afa18840edbef7b5a47d69cb59706750eabb2f9e06ef6e698faafa1",
    "filled": "130f3c13d5c8fdcd637932056bc308f410460a1804b7d5a7771c2bfe859f3ab6",
    "faults": "89b4add09c32c9d1f7c193b7d5f8f6ca09a5cba467c9d0c7f9c3f53a003c28cf",
    "decoder": "f6c4b3374694d169503185894fab2c3af78f0381e4341cba50d2c24812eb488a",
    "pipeline": "0dc029d89e070eead057bab9e795885fa49dd44d880581a1eed001ca5a97b6f6",
}
DECODER_MESSAGE = re.compile(r"(malformed document: )[^\"\n]*")


def test_digest(table):
    """Every report of the source is pinned; the faults and the pipeline set
    reach every code validation can emit."""
    source, documents = table
    digest, codes = hashlib.sha256(), set()
    for doc in documents:
        for r in doc.runs.values():
            digest.update(DECODER_MESSAGE.sub(r"\1", f"{r.status}\n{r.json}{r.text}").encode())
            codes.update(v.code for v in r.report.validation)
    if source in ("faults", "pipeline"):
        assert emitted_codes() <= codes
    assert digest.hexdigest() == DIGESTS[source]


def _nodes(value):
    """`value` and every key and value nested in it, through tuples too."""
    yield value
    if isinstance(value, (list, tuple)):
        for item in value:
            yield from _nodes(item)
    elif isinstance(value, dict):
        for key, item in value.items():
            yield key
            yield from _nodes(item)


# exactly the types `report._write` writes as JSON: it writes any tuple as a
# list, so a record that leaked into the document would pass unnoticed
PLAIN = {dict, list, tuple, str, int, bool, type(None)}


def test_report_document_is_plain_data(table):
    """Every node of every report's document, verbose or not, is of a
    plain type exactly."""
    for doc in table[1]:
        for r in doc.runs.values():
            for verbose in (False, True):
                assert {type(node) for node in _nodes(report_to_dict(r.report, verbose))} <= PLAIN


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
            containers = [n for n in _nodes(first[section]) if isinstance(n, (dict, list))]
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

    def test_sections_carry_record_fields(self):
        reports, _ = run([str(CORPUS["xyzu"])])
        v = report_to_dict(reports[0])["vanishing"]
        assert set(v["six_term"]) == {*SixTermCheck._fields, "top_pair_torsion"}
        assert set(v["bounds"]) == set(Bounds._fields)


def test_one_version():
    # reports carry vancoh.__version__ as their provenance; the packaging
    # metadata states the version separately, and the two must agree
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    assert tomllib.loads(pyproject.read_text())["project"]["version"] == vancoh.__version__
    [report] = run([str(CORPUS["xyz"])])[0]
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
    def test_compute_text(self, capsys):
        assert main(["compute", str(CORPUS["xyz"])]) == 0
        out = capsys.readouterr().out
        assert "Z^2" in out
        assert "lowest vanishing group" in out

    def test_compute_json(self, capsys):
        assert main(["compute", "--format", "json", str(CORPUS["xyzu"])]) == 0
        docs = json.loads(capsys.readouterr().out)
        assert docs[0]["vanishing"]["lowest_group"]["text"] == "Z^3"
        assert docs[0]["vanishing"]["six_term"]["domain"] == 14

    def test_validate_subcommand(self, capsys):
        assert main(["validate", str(CORPUS["xyz"])]) == 0
        out = capsys.readouterr().out
        assert "lowest vanishing" not in out

    def test_validate_costalk_required(self, capsys):
        path = CORPUS["x2z_y2u"]
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

    def test_matrix_suppression(self, capsys):
        path = CORPUS["xyzu"]  # j matrix is 12x14
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
