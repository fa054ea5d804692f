"""`render_json` writes the bytes of the standard library's indenting
encoder, which is the oracle here: ``json.dumps(docs, sort_keys=True,
indent=2, ensure_ascii=True)`` plus a newline.  CI runs these tests on each
supported Python, so the contract is checked against each version's own
`json`.  Where `json.dumps` fails the writer fails the same way, and a float
or any other value no report carries is refused with `json`'s TypeError.
`render_text` renders the document that `render_json` writes.  The reports
of `tests/test_engine.py`'s input table meet the same oracle there."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from vancoh import Report, Violation
from vancoh.cli import run
from vancoh.corpus import bundled
from vancoh.report import _write, render_json, render_text, report_to_dict

ODD_STRINGS = ["", "\ud800", "\udfff", '"', "\\", "é", "ключ", "\x00\x1f\n\t\x7f", "\U0001f600"]


def oracle(value) -> str:
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def write(value) -> str:
    out = []
    _write(value, "", out)
    return "".join(out) + "\n"


texts = st.one_of(st.sampled_from(ODD_STRINGS), st.text(st.characters(exclude_categories=())))
ints = st.one_of(st.sampled_from([0, 1, -1, 2 ** 200, -2 ** 200]),
                 st.integers(-2 ** 200, 2 ** 200))
leaves = st.one_of(st.none(), st.booleans(), ints, texts)
values = st.recursive(
    leaves,
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.lists(ints, max_size=6),  # a matrix row
                            st.dictionaries(texts, inner, max_size=5)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(values)
def test_writer_matches_the_stdlib_encoder(value):
    assert write(value) == oracle(value)


@pytest.mark.parametrize("value", [
    [], {}, (), [[]], [{}], {"": {}}, {"a": [[], ()]}, [[], [[]], {"k": {"j": []}}],
    (1, (2, "x"), True), [True, False, 1, 0], {"b": None, "a": [None]}])
def test_writer_matches_the_stdlib_encoder_on_edges(value):
    assert write(value) == oracle(value)


def test_reports_match_the_stdlib_encoder(tmp_path):
    # unknown keys with a lone surrogate and a quote ride along as warnings
    # beside a violation
    doc = json.loads(dict(bundled())["xyz"].read_text())
    doc.update({"\ud800": 1, 'quo"te': [], "é": {}})
    doc["components"][0]["genus"] = -1
    bad = tmp_path / "violation.json"
    bad.write_text(json.dumps(doc))
    reports, status = run([str(bad)])
    assert status == 1
    assert reports[0].validation and len(reports[0].warnings) == 3
    for verbose in (False, True):
        assert render_json(reports, verbose) == oracle([report_to_dict(reports[0], verbose)])


def test_integer_past_the_digit_limit_raises_as_json_does():
    huge = Report("huge", (Violation("negative-rank", "S"),), None, warnings=(10 ** 4300,))
    for render in (lambda: render_json([huge]), lambda: oracle([report_to_dict(huge)])):
        with pytest.raises(ValueError, match="integer string conversion"):
            render()


@pytest.mark.parametrize("leaf", [1.5, {1}, frozenset(), b"x", object()])
def test_other_leaves_raise_type_error(leaf):
    report = Report("odd", (Violation("negative-rank", "S"),), None, warnings=(leaf,))
    with pytest.raises(TypeError, match=f"^Object of type {type(leaf).__name__} "
                                        "is not JSON serializable$"):
        render_json([report])


def test_text_renders_the_report_document(monkeypatch):
    """`render_text` prints what `report_to_dict`'s document says."""
    [report], _ = run([str(dict(bundled())["xyz"])])
    doc = report_to_dict(report)
    doc["vanishing"]["lowest_group"]["text"] = "Z^7 (planted)"
    monkeypatch.setattr("vancoh.report.report_to_dict", lambda r, verbose=False: doc)
    assert "original): Z^7 (planted)\n" in render_text(report)
