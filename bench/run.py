"""Known-answer benchmark for vancoh, end to end and per module.

Usage::

    python3 bench/run.py --workload germ_sums --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30

Workloads: ``germ_sums``, ``dense_iota`` and ``validate_mix`` (see
``inputs.py``); ``all`` runs each of them untraced and traced.

A run measures ``setup_s`` (a fresh interpreter importing ``vancoh.cli``),
generates the workload's documents from the seed, and hands them to a fresh
worker process (``worker.py``) that times passes over the document list
for ``--seconds`` seconds and checks every report against its known
answer.  Times are scaled to a reference machine speed with a calibration
loop timed next to them (``calibration.py``).  With ``--trace 0`` the run
prints the end-to-end metrics; with ``--trace 1`` the worker alternates
untraced and traced passes and the run prints the per-layer metrics.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every run also writes a record (environment, metrics, quartiles across
passes, report digests) to ``.bench_results/<workload>/``; runs on the same
seed must produce byte-identical reports, which is checked against the
digest stored there.  ``summarize.py`` gives medians and quartiles across
runs.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

from calibration import REFERENCE_S, calibration_s, scaled

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

SETUP_RUNS = 24
IMPORT_CODE = ("from time import perf_counter; t0 = perf_counter(); import vancoh.cli; "
               "print(perf_counter() - t0)")
# The worker stops starting passes after --seconds; this margin covers the
# pass in flight, the precheck and the hostile probes.
WORKER_MARGIN_S = 120

END_TO_END = {"setup_s": "s", "batch_s": "s", "doc_p50_ms": "ms",
              "doc_tail_ms": "ms", "peak_rss_mb": "MB"}

PER_LAYER = {
    "engine.build_j_per_doc": "call/doc",
    "engine.component_cohomology_per_component": "call/component",
    "model.branch_kernel_per_branch": "call/branch",
    "linalg.snf_calls": "count",
    "linalg.hnf_calls": "count",
    "engine.build_j_s": "s",
    "engine.decompose_s": "s",
    "engine.six_term_s": "s",
    "engine.bounds_s": "s",
    "engine.self_s": "s",
    "linalg.snf_self_s": "s",
    "linalg.hnf_self_s": "s",
    "linalg.kernel_calls": "count",
    "linalg.intersect_calls": "count",
    "linalg.cokernel_calls": "count",
    "linalg.solve_calls": "count",
    "linalg.max_entry_bits": "bit",
    "linalg.max_cells": "count",
    "loader.calls": "count",
    "loader.self_s": "s",
    "model.validate_calls": "count",
    "model.validate_per_doc": "call/doc",
    "model.validate_self_s": "s",
    "cli.self_s": "s",
    "report.self_s": "s",
    "trace.overhead_frac": "fraction",
}

# Per-pass call counts read straight off one function's spans.
CALL_COUNTS = {
    "linalg.snf_calls": "linalg.smith_normal_form",
    "linalg.hnf_calls": "linalg.hnf_columns",
    "linalg.kernel_calls": "linalg.kernel",
    "linalg.intersect_calls": "linalg.intersect",
    "linalg.cokernel_calls": "linalg.cokernel",
    "linalg.solve_calls": "linalg.solve_in_basis",
    "model.validate_calls": "model.validate",
}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        v = values[0]
        return {"median": v, "q1": v, "q3": v, "n": len(values)}
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(samples)
    n = len(ordered)
    beyond = min(10, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, n


def measure_setup() -> tuple[list[float], list[float]]:
    """(scaled, raw) times that fresh interpreters spend importing
    ``vancoh.cli``, after one untimed import has filled the bytecode cache.

    The interpreters start on each allowed CPU in turn, with the
    calibration loop timed just before and after each; interpreter start-up
    itself is left out, as no change to vancoh can move it.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", IMPORT_CODE]
    subprocess.run(cmd, env=env, check=True, cwd=ROOT, capture_output=True)
    cpus = sorted(os.sched_getaffinity(0))
    times, raw = [], []
    try:
        for i in range(SETUP_RUNS):
            os.sched_setaffinity(0, {cpus[i % len(cpus)]})
            before = calibration_s()
            out = subprocess.run(cmd, env=env, check=True, cwd=ROOT,
                                 capture_output=True, text=True).stdout
            after = calibration_s()
            raw.append(float(out))
            times.append(scaled(raw[-1], before, after))
    finally:
        os.sched_setaffinity(0, cpus)
    return times, raw


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment(seed: int, seconds: int) -> dict:
    return {"python": platform.python_version(), "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu_model(), "platform": platform.platform(),
            "seed": seed, "seconds": seconds,
            "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")}


def write_inputs(workload: str, seed: int, workdir: Path) -> tuple[list[dict], list[dict], bool]:
    import inputs
    docs, compute = inputs.build(workload, seed)
    hostile = inputs.hostile_documents() if workload == "validate_mix" else []
    workdir.mkdir(parents=True)
    written = []
    for i, (name, raw, expect) in enumerate(docs + hostile):
        path = workdir / f"{i:03d}-{name}.json"
        path.write_bytes(raw)
        comps, branches = inputs.shape(raw)
        written.append({"name": name, "path": str(path), "expect": expect,
                        "components": comps, "branches": branches})
    return written[:len(docs)], written[len(docs):], compute


def run_worker(manifest: dict, workdir: Path) -> dict | None:
    """The worker's result, or None when it ran past its time limit."""
    manifest_path = workdir / "manifest.json"
    result_path = workdir / "result.json"
    manifest_path.write_text(json.dumps(manifest))
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(manifest_path),
                               str(result_path)], env=env, cwd=ROOT,
                              timeout=manifest["seconds"] + WORKER_MARGIN_S)
    except subprocess.TimeoutExpired:
        return None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(result_path.read_text())


def doc_times(passes: list[dict]) -> list[float]:
    """Each document's time at the reference machine speed: its time in
    every pass, scaled by the calibration times measured around it, and
    the median over the passes."""
    return [statistics.median(scaled(t, *c) for t, c in zip(ts, cs))
            for ts, cs in zip(zip(*(p["doc_s"] for p in passes)),
                              zip(*(p["cal_s"] for p in passes)))]


def end_to_end(result: dict, setup: tuple[list[float], list[float]]) -> tuple[dict, dict]:
    """Set-up, document and batch times at the reference machine speed
    (see ``calibration.py``); the raw times are kept in the record."""
    passes = result["passes"]
    batches = [p["batch_s"] for p in passes]
    per_doc = doc_times(passes)
    tail_s, percentile, count = tail(per_doc)
    values = {
        "setup_s": statistics.median(setup[0]),
        "batch_s": sum(per_doc),
        "doc_p50_ms": 1000.0 * statistics.median(per_doc),
        "doc_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    raw_doc = [min(ts) for ts in zip(*(p["doc_s"] for p in passes))]
    detail = {"setup_s": quartiles(setup[0]), "raw_setup_s": quartiles(setup[1]),
              "batch_s": quartiles(batches),
              "calibration_s": quartiles([c for p in passes for pair in p["cal_s"] for c in pair]),
              "raw": {"fastest_pass_s": min(batches),
                      "doc_p50_ms": 1000.0 * statistics.median(raw_doc),
                      "doc_tail_ms": 1000.0 * tail(raw_doc)[0]},
              "doc_tail": {"percentile": percentile, "documents": count},
              "raw_batches": batches}
    return values, detail


def per_layer(result: dict, docs: list[dict]) -> tuple[dict, dict]:
    traced = result["traced"]
    layers = [t["layers"] for t in traced]
    calls = layers[0]["calls"]
    ndocs = len(docs)
    components = sum(d["components"] for d in docs)
    branches = sum(d["branches"] for d in docs)

    def per(count, base):
        return count / base if base else 0.0

    def median_time(pick):
        return statistics.median(pick(layer) for layer in layers)

    def layer_self(prefix):
        return lambda layer: sum(v for k, v in layer["self_s"].items() if k.startswith(prefix))

    values = {
        "engine.build_j_per_doc": per(calls.get("engine.build_j", 0), ndocs),
        "engine.component_cohomology_per_component":
            per(calls.get("engine.component_cohomology", 0), components),
        "model.branch_kernel_per_branch": per(calls.get("model.branch_kernel", 0), branches),
        "linalg.max_entry_bits": max(layer["max_entry_bits"] for layer in layers),
        "linalg.max_cells": max(layer["max_cells"] for layer in layers),
        "loader.calls": sum(v for k, v in calls.items() if k.startswith("loader.")),
        "model.validate_per_doc": per(calls.get("model.validate", 0), ndocs),
        "linalg.snf_self_s": median_time(lambda x: x["self_s"].get("linalg.smith_normal_form", 0.0)),
        "linalg.hnf_self_s": median_time(lambda x: x["self_s"].get("linalg.hnf_columns", 0.0)),
        "model.validate_self_s": median_time(lambda x: x["self_s"].get("model.validate", 0.0)),
        "engine.self_s": median_time(layer_self("engine.")),
        "loader.self_s": median_time(layer_self("loader.")),
        "cli.self_s": median_time(layer_self("cli.")),
        "report.self_s": median_time(layer_self("report.")),
        "trace.overhead_frac": (sum(doc_times(traced))
                                / sum(doc_times(result["passes"])) - 1.0),
    }
    for metric, name in CALL_COUNTS.items():
        values[metric] = calls.get(name, 0)
    for stage in ("build_j", "decompose", "six_term", "bounds"):
        values[f"engine.{stage}_s"] = median_time(
            lambda x, s=stage: x["stage_s"].get(f"engine.{s}", 0.0))
    detail = {"traced_passes": len(traced),
              "spans_per_pass": layers[0]["spans"],
              "counts_repeat": all(layer["calls"] == calls for layer in layers),
              "calls": calls}
    return values, detail


def outcomes(result: dict, documents: int) -> tuple[int, int, dict[str, str], float]:
    """(document runs attempted, runs failed, failing documents, fail_frac).

    fail_frac is the share of distinct documents, hostile probes included,
    whose outcome was wrong in any pass.
    """
    passes = result["passes"] + result["traced"]
    failed_docs: dict[str, str] = {}
    for p in passes:
        failed_docs.update(p["failures"])
    attempted = sum(len(p["doc_s"]) for p in passes)
    failed = sum(len(p["failures"]) for p in passes)
    hostile = result["hostile"]
    wrong = len(failed_docs) + sum(h["failed"] for h in hostile)
    return attempted, failed, failed_docs, wrong / (documents + len(hostile))


def check_digest(workload: str, seed: int, digests: set[str]) -> str | None:
    """Problem with the report digests of this run, or None."""
    if len(digests) != 1:
        return f"passes rendered different reports: {sorted(digests)}"
    digest = next(iter(digests))
    stored = RESULTS / workload / f"seed{seed}.sha256"
    if stored.exists():
        previous = stored.read_text().strip()
        if previous != digest:
            return f"reports differ from an earlier run on seed {seed}: {digest} != {previous}"
    else:
        stored.write_text(digest + "\n")
    return None


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> dict:
    setup = ([], []) if trace else measure_setup()
    workdir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    try:
        docs, hostile, compute = write_inputs(workload, seed, workdir)
        manifest = {"docs": docs, "hostile": hostile, "compute": compute,
                    "seconds": seconds, "trace": trace}
        result = run_worker(manifest, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record: dict = {"workload": workload, "trace": trace,
                    "environment": environment(seed, seconds)}
    if result is None:
        limit = seconds + WORKER_MARGIN_S
        record.update(correct=False, attempted=len(docs), failed=len(docs), metrics={},
                      problems=[f"worker did not finish within {limit} s"])
        return record
    record["precheck"] = result["precheck"]
    if result["precheck"]:
        record.update(correct=False, attempted=len(docs), failed=len(result["precheck"]),
                      metrics={}, problems=result["precheck"])
        return record

    passes = result["passes"] + result["traced"]
    attempted, failed, failed_docs, fail_frac = outcomes(result, len(docs))
    problems = [f"{name}: {why}" for name, why in sorted(failed_docs.items())]
    (RESULTS / workload).mkdir(parents=True, exist_ok=True)
    digest_problem = check_digest(workload, seed, {p["sha256"] for p in passes})
    if digest_problem:
        problems.append(digest_problem)

    if trace:
        values, detail = per_layer(result, docs)
        units = PER_LAYER
    else:
        values, detail = end_to_end(result, setup)
        units = END_TO_END
    record.update(
        correct=not failed and digest_problem is None,
        attempted=attempted, failed=failed,
        fail_frac=fail_frac,
        documents=len(docs), hostile=result["hostile"], problems=problems,
        passes=len(result["passes"]), measured_s=result["measured_s"],
        sha256=passes[0]["sha256"],
        metrics={name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        detail=detail)
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%S")
    out = RESULTS / workload / f"seed{seed}-trace{trace}-{stamp}-{os.getpid()}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    return record


def print_record(record: dict) -> None:
    env = record["environment"]
    print(f"workload {record['workload']} trace {record['trace']}: python {env['python']}, "
          f"nproc {env['nproc']}, cpu {env['cpu_model']}, seed {env['seed']}")
    for problem in record.get("problems", []):
        print(f"  PROBLEM {problem}")
    if "fail_frac" not in record:
        return
    for name, m in record["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    hostile = record["hostile"]
    print(f"  fail_frac = {record['fail_frac']:.6g} fraction ({record['documents']} documents"
          + (f" + {len(hostile)} hostile" if hostile else "") + ")")
    for h in hostile:
        print(f"  hostile {h['name']}: {'FAILED ' + h['reason'] if h['failed'] else 'ok'}")
    detail = record["detail"]
    if "doc_tail" in detail:
        t = detail["doc_tail"]
        print(f"  doc_tail_ms is the p{t['percentile']:.2f} of {t['documents']} documents, "
              f"each the median of {record['passes']} passes")
        b = detail["batch_s"]
        c = detail["calibration_s"]
        raw = detail["raw"]
        print(f"  raw pass times q1 / median / q3: {b['q1']:.4f} / {b['median']:.4f} / {b['q3']:.4f} s")
        print(f"  raw fastest doc_p50_ms {raw['doc_p50_ms']:.4f}, doc_tail_ms {raw['doc_tail_ms']:.4f}")
        print(f"  calibration loop median {1000 * c['median']:.4f} ms "
              f"(reference {1000 * REFERENCE_S:.4f} ms)")
    else:
        print(f"  {detail['traced_passes']} traced passes, {detail['spans_per_pass']} spans per pass, "
              f"counts repeat: {detail['counts_repeat']}")
    print(f"  reports sha256 {record['sha256']}")


def result_line(record: dict) -> str:
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": record["metrics"]})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("germ_sums", "dense_iota", "validate_mix", "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(BENCH))

    if args.workload != "all":
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print_record(record)
        print(result_line(record))
        return 0

    records = {}
    for workload in ("germ_sums", "dense_iota", "validate_mix"):
        for trace in (0, 1):
            record = run_workload(workload, args.seed, args.seconds, trace)
            print_record(record)
            records[f"{workload}/trace{trace}"] = json.loads(result_line(record))
    print(json.dumps(records))
    return 0


if __name__ == "__main__":
    sys.exit(main())
