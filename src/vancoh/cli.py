"""Command line: validate or compute configuration files, run the corpus.

Each file takes one path to one report: `loader.load_path` reads, hashes
and parses it, then the report stops at its parse and `--strict`
violations, or validates it or computes.

Exit status: 0 when every input is valid and all internal checks pass, 1 on
any validation failure (including unreadable or malformed files), 2 on an
internal defect.
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from . import corpus
from .engine import InternalDefectError, InvalidConfigurationError, analyze
from .loader import load_path
from .model import Violation, validate
from .report import Report, render_json, render_text, report_to_dict


def _file_report(path: str, *, strict: bool, costalk_required: bool,
                 compute: bool) -> Report:
    # Reports stay a pure function of the input bytes: no paths inside, so
    # equal documents serialize identically wherever they live.
    result, error = load_path(path)
    if result is None:
        return Report("unreadable", (Violation("unreadable-file", "document", error),), None)
    digest = result.input_sha256
    violations, warnings = result.violations, ()
    if result.unknown_keys:
        if strict:
            violations += tuple(Violation("unknown-key", key, "unknown key in strict mode")
                                for key in result.unknown_keys)
        else:
            warnings = result.unknown_keys
    report = partial(Report, digest[:12], warnings=warnings, input_sha256=digest)
    if violations:
        return report(violations, None)
    # A document without structural violations always assembles.
    cfg = result.configuration
    missing = [Violation("missing-costalk", q.id,
                         "lower bound requested but costalk rank is absent")
               for q in cfg.special_points
               if costalk_required and q.costalk_rank is None]
    # On the compute path without missing costalks, analyze validates.
    if missing or not compute:
        return report(tuple(validate(cfg) or missing), None)
    try:
        return report((), analyze(cfg))
    except InvalidConfigurationError as exc:
        return report(tuple(exc.violations), None)
    except InternalDefectError as exc:
        return report((), None, defect=str(exc))


def run(paths: list[str], *, compute: bool = True, strict: bool = False,
        costalk_required: bool = False) -> tuple[list[Report], int]:
    """Process the inputs in order; one report per path.

    Status 0 iff all valid (and computed cleanly), 1 on validation failure,
    2 on internal defect.
    """
    reports = [_file_report(p, strict=strict, costalk_required=costalk_required,
                            compute=compute) for p in paths]
    status = 0
    if any(r.validation for r in reports):
        status = 1
    if any(r.defect is not None for r in reports):
        status = 2
    return reports, status


def _emit(reports: list[Report], fmt: str, verbose: bool) -> None:
    if fmt == "json":
        sys.stdout.write(render_json(reports, verbose))
    else:
        for r in reports:
            sys.stdout.write(render_text(r, verbose))


def _run_corpus(fmt: str, verbose: bool) -> int:
    entries = corpus.bundled()
    reports, status = run([str(p) for _, p in entries], compute=True)
    # under json, stdout carries the reports alone
    log = sys.stderr if fmt == "json" else sys.stdout
    failures = []
    for (name, path), report in zip(entries, reports):
        expected = corpus.EXPECTED[name]
        doc = report_to_dict(report)
        if "vanishing" not in doc:
            failures.append(f"{name}: no result ({'defect' if doc.get('defect') else 'invalid'})")
            continue
        v = doc["vanishing"]
        six = v["six_term"]
        got = {"group": v["lowest_group"]["text"], "domain": six["domain"],
               "codomain": six["codomain"], "kernel": six["lowest_pair"],
               "upper": v["bounds"]["upper_lowest"]}
        bad = {k: (got[k], expected[k]) for k in expected if got[k] != expected[k]}
        if bad:
            failures.append(f"{name}: mismatch {bad}")
        else:
            print(f"corpus {name}: ok ({got['group']})", file=log)
    for f in failures:
        print(f"corpus FAILURE {f}", file=log)
    if fmt == "json" or verbose:
        _emit(reports, fmt, verbose)
    return max(status, 1) if failures else status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="vancoh",
        description="Lowest vanishing cohomology of a non-isolated hypersurface "
                    "singularity germ from its sliced singular-locus data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--verbose", action="store_true",
                       help="print matrix literals regardless of size")

    for name, text in (("validate", "validate configuration files"),
                       ("compute", "validate and compute reports")):
        p = sub.add_parser(name, help=text)
        add_output(p)
        p.add_argument("--strict", action="store_true",
                       help="treat unknown document keys as fatal")
        p.add_argument("--costalk-required", action="store_true",
                       help="fail when the lower bound cannot be computed")
        p.add_argument("paths", nargs="+")
    add_output(sub.add_parser("corpus", help="run the bundled examples against "
                                             "their expected values"))

    args = parser.parse_args(argv)
    # JSON admits lone surrogates (an escaped "\ud800" in an id or key), which
    # no encoding can write: print them as escapes instead of failing.
    for stream in (sys.stdout, sys.stderr):
        if hasattr(stream, "reconfigure"):
            stream.reconfigure(errors="backslashreplace")

    if args.command == "corpus":
        return _run_corpus(args.format, args.verbose)

    compute = args.command == "compute"
    reports, status = run(args.paths, compute=compute, strict=args.strict,
                          costalk_required=args.costalk_required)
    _emit(reports, args.format, args.verbose)
    return status


if __name__ == "__main__":
    sys.exit(main())
