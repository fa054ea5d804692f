"""Timed worker: runs one workload's documents through the command line.

Run as ``python3 bench/worker.py MANIFEST RESULT`` in a fresh interpreter.
The manifest (written by ``run.py``) lists the documents with their
expected outcomes; the result file receives per-pass timings, per-document
samples, correctness findings and, for traced passes, the tracer's
aggregates.

Each document goes through ``vancoh.cli.run([path], compute=...)`` and
``vancoh.report.render_json``; that pair is what one document's time
measures.  Passes over the whole list repeat until the measuring time is
used up.  With tracing on, untraced and traced passes alternate, so the
tracing overhead is measured under the same conditions.

The calibration loop (``calibration.py``) runs before the first document
of a pass and after every document, so each document's time comes with the
machine's speed measured just before and just after it.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

from vancoh import cli, loader, model, report  # noqa: E402

from calibration import calibration_s  # noqa: E402
from tracer import Tracer  # noqa: E402

def precheck(docs: list[dict]) -> list[str]:
    """Generated documents that do not load and validate cleanly."""
    problems = []
    for doc in docs:
        if doc["expect"]["status"] != 0:
            continue
        result, error = loader.load_path(doc["path"])
        if error is not None or result.configuration is None:
            problems.append(f"{doc['name']}: does not load ({error or result.violations})")
            continue
        violations = model.validate(result.configuration)
        if violations:
            codes = [v.code for v in violations]
            problems.append(f"{doc['name']}: {len(violations)} violations {codes}")
    return problems


def answer_of(vanishing: dict) -> dict:
    six = vanishing["six_term"]
    return {"group": vanishing["lowest_group"]["text"], "domain": six["domain"],
            "codomain": six["codomain"], "kernel": six["lowest_pair"],
            "upper": vanishing["bounds"]["upper_lowest"]}


def check(expect: dict, status, text: str | None, error: str | None) -> str | None:
    """Why one document's outcome is wrong, or None when it is right."""
    if error is not None:
        return error
    if status != expect["status"]:
        return f"exit status {status}, expected {expect['status']}"
    reports = json.loads(text)
    if len(reports) != 1:
        return f"{len(reports)} reports"
    rep = reports[0]
    codes = [v["code"] for v in rep["validation"]]
    if codes != expect["codes"]:
        return f"violations {codes}, expected {expect['codes']}"
    if "defect" in rep:
        return f"defect: {rep['defect']}"
    answer = expect.get("answer")
    if answer is None:
        return "unexpected result" if "vanishing" in rep else None
    if "vanishing" not in rep:
        return "no result"
    got = answer_of(rep["vanishing"])
    return None if got == answer else f"answer {got}, expected {answer}"


def run_document(path: str, compute: bool) -> tuple[object, str | None, str | None]:
    """(status, rendered reports, error) for one document."""
    try:
        reports, status = cli.run([path], compute=compute)
        return status, report.render_json(reports), None
    except Exception as exc:  # a traceback instead of a report is a failure
        return None, None, f"{type(exc).__name__}: {str(exc)[:200]}"


def timed_pass(docs: list[dict], compute: bool, tracer: Tracer | None) -> dict:
    """One pass over the documents: each one's time (``doc_s``), the
    calibration times just before and after it (``cal_s``), and their
    outcomes."""
    times = []
    cal = []
    outcomes = []
    before = calibration_s()
    for i, doc in enumerate(docs):
        if tracer is not None:
            tracer.doc_id = i
        t0 = perf_counter()
        outcome = run_document(doc["path"], compute)
        times.append(perf_counter() - t0)
        after = calibration_s()
        cal.append((before, after))
        before = after
        outcomes.append(outcome)

    digest = hashlib.sha256()
    failures = {}
    for doc, (status, text, error) in zip(docs, outcomes):
        digest.update((text if text is not None else f"<{error}>\n").encode())
        reason = check(doc["expect"], status, text, error)
        if reason is not None:
            failures[doc["name"]] = reason
    return {"batch_s": sum(times), "doc_s": times, "cal_s": cal, "failures": failures,
            "sha256": digest.hexdigest()}


def probe_hostile(hostile: list[dict], companion: str) -> list[dict]:
    """Each hostile file, followed by a valid one, must give two reports:
    malformed-document for the first, a clean one for the second, status 1."""
    out = []
    for doc in hostile:
        status, text, error = None, None, None
        try:
            reports, status = cli.run([doc["path"], companion], compute=False)
            text = report.render_json(reports)
        except Exception as exc:  # the known defect: the batch aborts
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
        reason = error
        if reason is None:
            reps = json.loads(text)
            codes = [[v["code"] for v in r["validation"]] for r in reps]
            if status != 1 or codes != [doc["expect"]["codes"], []]:
                reason = f"status {status}, violations {codes}"
        out.append({"name": doc["name"], "failed": reason is not None, "reason": reason})
    return out


def main(manifest_path: str, result_path: str) -> int:
    manifest = json.loads(Path(manifest_path).read_text())
    docs = manifest["docs"]
    compute = manifest["compute"]
    seconds = manifest["seconds"]
    trace = manifest["trace"]

    result: dict = {"precheck": precheck(docs), "passes": [], "traced": []}
    if result["precheck"]:
        Path(result_path).write_text(json.dumps(result))
        return 0

    tracer = Tracer() if trace else None
    cpus = sorted(os.sched_getaffinity(0))
    t_start = perf_counter()
    index = 0
    while True:
        # On a shared machine each CPU's speed changes with what its
        # neighbours run; spreading passes over the CPUs lets the fastest
        # pass reflect the program rather than one neighbour.
        os.sched_setaffinity(0, {cpus[(index // (2 if trace else 1)) % len(cpus)]})
        traced = trace and index % 2 == 1
        if traced:
            with tracer:
                record = timed_pass(docs, compute, tracer)
            record["layers"] = tracer.collect()
            result["traced"].append(record)
        else:
            result["passes"].append(timed_pass(docs, compute, None))
        index += 1
        if perf_counter() - t_start >= seconds and index >= (2 if trace else 1):
            break
    os.sched_setaffinity(0, cpus)
    result["measured_s"] = perf_counter() - t_start
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    companion = next(d["path"] for d in docs if d["expect"]["status"] == 0)
    result["hostile"] = probe_hostile(manifest["hostile"], companion)
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
