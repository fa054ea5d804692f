"""Deterministic report construction and rendering.

Reports are pure data derived from the input bytes alone, so equal inputs
produce byte-identical serialized reports regardless of file path.
`six_term`, `bounds` and each group dict carry their dataclass's fields.
`report_to_dict` is the one reader of a `Report`: `render_json` writes its
document and `render_text` renders the same document.

`render_json` writes exactly what `json.dumps(reports, sort_keys=True,
indent=2, ensure_ascii=True)` would, plus a newline, so consumers may hash or
diff it: each leaf gets the C-level spelling `json` itself uses, and the
indentation is written around the leaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote

from . import __version__
from .engine import VanishingReport
from .linalg import FinAbGroup, IntegerMatrix
from .model import Violation

MATRIX_PRINT_LIMIT = 12  # larger literals are suppressed unless verbose
_LITERALS = {True: "true", False: "false", None: "null"}


def format_group(g: FinAbGroup) -> str:
    """Canonical text for a finitely generated abelian group.

    "0" for the trivial group, "Z^r" for free, and torsion factors appended
    in divisibility-chain order; a zero free part is omitted.
    """
    if g.is_trivial:
        return "0"
    parts = []
    if g.free_rank:
        parts.append(f"Z^{g.free_rank}")
    parts.extend(f"Z/{d}" for d in g.torsion)
    return " (+) ".join(parts)


@dataclass(frozen=True)
class Report:
    """Outcome for one configuration document."""

    configuration_id: str
    validation: tuple[Violation, ...]
    vanishing: VanishingReport | None
    defect: str | None = None
    warnings: tuple[str, ...] = ()
    input_sha256: str = ""

    def __post_init__(self):
        if self.validation and self.vanishing is not None:
            raise ValueError("a report with violations must not carry results")


def _group_dict(g: FinAbGroup) -> dict:
    return {**vars(g), "text": format_group(g)}


def _matrix_entry(m: IntegerMatrix, verbose: bool):
    if verbose or (m.rows <= MATRIX_PRINT_LIMIT and m.cols <= MATRIX_PRINT_LIMIT):
        return m.tolist()
    return f"suppressed ({m.rows}x{m.cols}; rerun with --verbose)"


def _vanishing_dict(v: VanishingReport, verbose: bool) -> dict:
    # each section is a fresh dict: a dataclass's own __dict__ must not leak
    out = {
        "lowest_group": _group_dict(v.lowest_group),
        "lowest_degree": v.lowest_degree,
        "original_degree": v.original_degree,
        "g_rank": v.g_rank,
        "i0_contribution": v.i0_contribution,
        "components": [
            {
                "id": c.component_id,
                "invariant_rank": c.invariants.rank,
                "invariant_basis": _matrix_entry(c.invariants.basis, verbose),
                "coker": _group_dict(c.coker),
                "euler": c.euler,
            }
            for c in v.components
        ],
        "euler_total": v.euler_total,
        "six_term": {**vars(v.six_term), "top_pair_torsion": "undetermined extension"},
        "bounds": {**vars(v.bounds)},
        "j_matrix": _matrix_entry(v.j_matrix, verbose),
        "shortcut_agrees": v.shortcut_agrees,
    }
    if v.monodromy is not None:
        out["monodromy_checks"] = {"char_poly_divides": v.monodromy.char_poly_divides,
                                   "eigen_dims": dict(v.monodromy.eigen_dims_ok),
                                   "jordan_sizes": dict(v.monodromy.jordan_sizes_ok)}
    return out


def report_to_dict(report: Report, verbose: bool = False) -> dict:
    out: dict = {
        "configuration_id": report.configuration_id,
        "validation": [{**vars(v)} for v in report.validation],
        "provenance": {"tool": "vancoh", "version": __version__,
                       "input_sha256": report.input_sha256},
    }
    if report.warnings:
        out["warnings"] = list(report.warnings)
    if report.defect is not None:
        out["defect"] = report.defect
    if report.vanishing is not None:
        out["vanishing"] = _vanishing_dict(report.vanishing, verbose)
    return out


def _write(value, pad: str, out: list[str]) -> None:
    """Append the indented JSON of `value`, whose line starts with `pad`, to
    `out`.  Types are tested in `json`'s order, so subclasses and bools come
    out as it writes them.  Keys must be strings; a float or any other leaf,
    which no report carries, raises `json`'s TypeError."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None or value is True or value is False:
        out.append(_LITERALS[value])
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict) and value:
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out += (sep, _quote(key), ": ")
            _write(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = pad + "  "
        if set(map(type, value)) == {int}:  # a matrix row: one join, no call per entry
            out.append("[\n" + inner + (",\n" + inner).join(map(int.__repr__, value)))
        else:
            sep = "[\n" + inner
            for item in value:
                out.append(sep)
                _write(item, inner, out)
                sep = ",\n" + inner
        out.append("\n" + pad + "]")
    elif isinstance(value, (dict, list, tuple)):
        out.append("{}" if isinstance(value, dict) else "[]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def render_json(reports: list[Report], verbose: bool = False) -> str:
    out: list[str] = []
    _write([report_to_dict(r, verbose) for r in reports], "", out)
    out.append("\n")
    return "".join(out)


def render_text(report: Report, verbose: bool = False) -> str:
    """The lines of `report_to_dict`'s document, for a reader."""
    doc = report_to_dict(report, verbose)
    lines = [f"configuration {doc['configuration_id']}"]
    lines += [f"  warning: unknown key {w}" for w in doc.get("warnings", ())]
    if doc["validation"]:
        lines.append("  INVALID")
        lines += [f"    {v['code']} [{v['subject']}]" + (f": {v['detail']}" if v["detail"] else "")
                  for v in doc["validation"]]
    elif "defect" in doc:
        lines.append(f"  DEFECT: {doc['defect']}")
    elif "vanishing" in doc:
        lines += _vanishing_lines(doc["vanishing"])
    else:  # validate-only run
        lines.append("  valid")
    return "\n".join(lines) + "\n"


def _vanishing_lines(v: dict) -> list[str]:
    six, bounds = v["six_term"], v["bounds"]
    i0 = ", ".join(f"{cid}:{r}" for cid, r in v["i0_contribution"])
    lines = [f"  lowest vanishing group (degree {v['lowest_degree']} sliced, "
             f"{v['original_degree']} original): {v['lowest_group']['text']}",
             f"  decomposition: interaction rank {v['g_rank']}"
             + (f", branch-free components {i0}" if i0 else "")]
    lines += [f"  component {c['id']}: invariant rank {c['invariant_rank']}, "
              f"coker {c['coker']['text']}, euler {c['euler']}" for c in v["components"]]
    lines.append(f"  euler characteristic of the vanishing neighborhood: {v['euler_total']}")
    lines.append(f"  six-term ranks: lowest {six['lowest_pair']}, domain {six['domain']}, "
                 f"codomain {six['codomain']}, top {six['top_pair']} (torsion undetermined), "
                 f"middle {six['middle']}, branch coker {six['branch_coker']}"
                 f"{' [consistent]' if six['consistent'] else ' [INCONSISTENT]'}")
    lower = "absent" if bounds["lower_lowest"] is None else bounds["lower_lowest"]
    lines.append(f"  bounds: lowest betti in [{lower}, {bounds['upper_lowest']}], "
                 f"concentration bound {bounds['min_bound']}, "
                 f"next betti <= {bounds['betti_high']}")
    lines += [f"  polar bound: b_(n-{k})(F) <= {b}" for k, b in bounds["polar"]]
    if "monodromy_checks" in v:
        m = v["monodromy_checks"]
        lines.append(f"  char poly divides component product: {m['char_poly_divides']}")
        lines += [f"  eigenspace bound at {label}: {ok}" for label, ok in m["eigen_dims"].items()]
        lines += [f"  jordan bound at {label}: {ok}" for label, ok in m["jordan_sizes"].items()]
    if v["shortcut_agrees"] is not None:
        lines.append(f"  no-special-point shortcut agrees: {v['shortcut_agrees']}")
    jm = v["j_matrix"]
    if isinstance(jm, list):
        lines.append(f"  j matrix ({six['codomain']}x{six['domain']}):")
        lines += ["    [" + " ".join(f"{x:3d}" for x in row) + "]" for row in jm]
    else:
        lines.append(f"  j matrix: {jm}")
    return lines
