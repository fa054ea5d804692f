"""Tests of the benchmark itself: inputs, tracer, outcome checks.

Run with ``python3 -m pytest bench`` from the repository root.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "tests"))

import inputs  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import Tracer  # noqa: E402

import vancoh.cli  # noqa: E402
import vancoh.engine  # noqa: E402
import vancoh.model  # noqa: E402
from vancoh import corpus  # noqa: E402
from vancoh.loader import load_path  # noqa: E402
from oracles import rational_rank  # noqa: E402


def xyzu():
    return load_path(dict(corpus.bundled())["xyzu"])[0].configuration


def write_docs(tmp_path: Path, items) -> list[dict]:
    docs = []
    for i, (name, raw, expect) in enumerate(items):
        path = tmp_path / f"{i:03d}-{name}.json"
        path.write_bytes(raw)
        comps, branches = inputs.shape(raw)
        docs.append({"name": name, "path": str(path), "expect": expect,
                     "components": comps, "branches": branches})
    return docs


# -- tracer -----------------------------------------------------------------

def test_tracer_counts_for_xyzu_match_seed_values():
    cfg = xyzu()
    tracer = Tracer()
    with tracer:
        vancoh.engine.analyze(cfg)
    calls = tracer.collect()["calls"]
    assert calls["linalg.smith_normal_form"] == 848
    assert calls["linalg.hnf_columns"] == 871
    assert calls["engine.build_j"] == 5
    assert calls["engine.component_cohomology"] == 60
    # 480 of these arrive through engine's own name for branch_kernel.
    assert calls["model.branch_kernel"] == 492


def test_tracer_rebinds_every_binding_and_restores_them():
    originals = {(vancoh.engine, "branch_kernel"): vancoh.model.branch_kernel,
                 (vancoh.engine, "validate"): vancoh.model.validate,
                 (vancoh.cli, "analyze"): vancoh.engine.analyze,
                 (vancoh.cli, "validate"): vancoh.model.validate,
                 (vancoh.cli, "load_path"): vancoh.loader.load_path}
    with Tracer():
        for (module, name), fn in originals.items():
            assert getattr(module, name).__wrapped__ is fn
        assert vancoh.engine.branch_kernel is vancoh.model.branch_kernel
    for (module, name), fn in originals.items():
        assert getattr(module, name) is fn


def test_self_time_excludes_children():
    cfg = xyzu()
    tracer = Tracer()
    with tracer:
        vancoh.engine.analyze(cfg)
    spans = tracer.spans()
    out = tracer.collect()
    root = [s for s in spans if s[3] == -1]
    assert [s[0] for s in root] == ["engine.analyze"]
    duration = root[0][2] - root[0][1]
    assert 0 < sum(out["self_s"].values()) <= duration * (1 + 1e-9)
    assert 0 < out["stage_s"]["engine.build_j"] < duration


# -- inputs -----------------------------------------------------------------

def test_corpus_table_matches_the_package():
    assert inputs.CORPUS_EXPECTED == corpus.EXPECTED


@pytest.mark.parametrize("workload", ["germ_sums", "dense_iota", "validate_mix"])
def test_inputs_depend_only_on_the_seed(workload):
    first, _ = inputs.build(workload, 7)
    again, _ = inputs.build(workload, 7)
    other, _ = inputs.build(workload, 8)
    assert first == again
    assert [raw for _, raw, _ in first] != [raw for _, raw, _ in other]


def test_rank_q_and_unimodular_pair():
    assert inputs.rank_q([[1, 2], [2, 4]]) == 1
    assert inputs.rank_q([[0, 0], [0, 0]]) == 0
    assert inputs.rank_q([[2, 1, 0], [0, 3, 1], [4, 5, 1]]) == 2
    rng = random.Random(3)
    for rows, cols, bound in ((6, 9, 9), (9, 6, 1), (12, 12, 2)):
        m = [[rng.randint(-bound, bound) for _ in range(cols)] for _ in range(rows)]
        m[-1] = [x + y for x, y in zip(m[0], m[1])]
        assert inputs.rank_q(m) == rational_rank(m)
    u, v = inputs.unimodular_pair(rng, 5, 40, 4)
    assert inputs.matmul(u, v) == inputs.identity(5)


def test_small_documents_get_their_known_answers(tmp_path):
    picked = []
    for workload in ("germ_sums", "dense_iota"):
        docs, _ = inputs.build(workload, 5)
        seen = set()
        for name, raw, expect in docs:
            rung = name.rsplit("-", 1)[0]
            if rung not in seen and not name.startswith("quadric"):
                seen.add(rung)
                picked.append((name, raw, expect))
    record = worker.timed_pass(write_docs(tmp_path, picked), True, None)
    assert record["failures"] == {}


def test_mutants_break_exactly_one_invariant(tmp_path):
    docs, compute = inputs.build("validate_mix", 5)
    mutants = [d for d in docs if d[0].startswith("mut-")]
    assert not compute and len(mutants) > len(inputs.MUTATIONS)
    record = worker.timed_pass(write_docs(tmp_path, mutants), False, None)
    assert record["failures"] == {}


# -- outcomes -----------------------------------------------------------------

def run_manifest(tmp_path: Path, docs: list[dict], hostile: list[dict], compute: bool) -> dict:
    manifest = tmp_path / "manifest.json"
    result = tmp_path / "result.json"
    manifest.write_text(json.dumps({"docs": docs, "hostile": hostile, "compute": compute,
                                    "seconds": 0, "trace": 0}))
    assert worker.main(str(manifest), str(result)) == 0
    return json.loads(result.read_text())


def test_planted_wrong_answer_raises_fail_frac(tmp_path):
    items, _ = inputs.build("germ_sums", 1)
    items = [item for item in items if item[0].startswith("corpus-")]
    docs = write_docs(tmp_path, items)
    clean = run_manifest(tmp_path, docs, [], True)
    assert run.outcomes(clean, len(docs))[1:] == (0, {}, 0.0)

    docs[1]["expect"]["answer"] = dict(docs[1]["expect"]["answer"], group="Z^4")
    planted = run_manifest(tmp_path, docs, [], True)
    attempted, failed, failing, fail_frac = run.outcomes(planted, len(docs))
    assert failed == 1 and list(failing) == [docs[1]["name"]]
    assert fail_frac == pytest.approx(1 / len(docs))


def test_hostile_documents_count_in_fail_frac(tmp_path):
    docs = write_docs(tmp_path, [("corpus-xyz", (inputs.CORPUS_DIR / "xyz.json").read_bytes(),
                                  {"status": 0, "codes": []})])
    (tmp_path / "hostile").mkdir()
    hostile = write_docs(tmp_path / "hostile", inputs.hostile_documents())
    result = run_manifest(tmp_path, docs, hostile, False)
    assert [h["name"] for h in result["hostile"]] == ["hostile-long-integer",
                                                      "hostile-deep-nesting"]
    failing = sum(h["failed"] for h in result["hostile"])
    assert run.outcomes(result, 1)[3] == pytest.approx(failing / 3)


def test_document_times_follow_the_calibration_loop():
    ref = run.REFERENCE_S
    passes = [{"doc_s": [0.2, 0.01], "cal_s": [(ref, ref), (ref, ref)]},
              {"doc_s": [0.3, 0.015], "cal_s": [(ref, 2 * ref), (2 * ref, ref)]},
              {"doc_s": [0.1, 0.05], "cal_s": [(ref, ref), (ref, ref)]}]
    assert run.doc_times(passes) == pytest.approx([0.2, 0.01])


def test_tail_has_ten_samples_beyond_it():
    value, percentile, count = run.tail([float(i) for i in range(100)])
    assert value == 89.0 and count == 100 and percentile == pytest.approx(90.0)


def test_worker_past_its_time_limit_gives_an_incorrect_result(monkeypatch):
    monkeypatch.setattr(run, "WORKER_MARGIN_S", 0)
    record = run.run_workload("germ_sums", 1, 0, 1)
    line = json.loads(run.result_line(record))
    assert line["correct"] is False and line["failed"] == line["attempted"] > 0
    assert record["problems"] == ["worker did not finish within 0 s"]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "germ_sums",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
