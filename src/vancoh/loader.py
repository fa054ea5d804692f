"""Reading and writing configuration documents.

A configuration is one JSON document: a key/value tree whose top-level keys
are ``n``, ``original_n``, ``original_s``, ``components``,
``special_points``, ``isolated_points`` and the optional ``polar_data`` and
``monodromy_data``.  Matrices are nested row lists of integers; polynomials
are coefficient lists in ascending order (index = power of t).

Parsing never throws on bad content: structural problems come back as
violations, so a batch run can keep going on the other inputs.  Unknown
keys are collected separately; strict mode turns them into violations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .linalg import IntegerMatrix
from .model import (Branch, CurveComponent, EigenvalueData, IsolatedPoint, MonodromyData,
                    SliceConfiguration, SpecialPoint, Violation)
from .polynomial import IntPolynomial

_TOP_KEYS = {"n", "original_n", "original_s", "components", "special_points",
             "isolated_points", "polar_data", "monodromy_data"}
_COMPONENT_KEYS = {"id", "genus", "transversal_rank", "loop_monodromies"}
_POINT_KEYS = {"id", "branches", "fq_rank_low", "fq_rank_high", "iota", "costalk_rank"}
_BRANCH_KEYS = {"component_id", "monodromy"}
_ISOLATED_KEYS = {"id", "milnor_number"}
_MONODROMY_KEYS = {"char_poly", "component_char_polys", "eigen_dims", "jordan_sizes"}
_EIGEN_KEYS = {"eigenvalue", "total", "components"}


@dataclass
class ParseResult:
    configuration: SliceConfiguration | None
    violations: list[Violation]
    unknown_keys: list[str]


class _Reader:
    def __init__(self):
        self.violations: list[Violation] = []
        self.unknown: list[str] = []

    def bad(self, path: str, detail: str) -> None:
        self.violations.append(Violation("malformed-document", path, detail))

    def check_keys(self, obj: dict, allowed: set[str], path: str) -> None:
        for key in obj:
            if key not in allowed:
                self.unknown.append(f"{path}.{key}" if path else key)

    def integer(self, obj: dict, key: str, path: str, required: bool = True) -> int | None:
        if key not in obj:
            if required:
                self.bad(f"{path}.{key}" if path else key, "missing required key")
            return None
        value = obj[key]
        if value is None and not required:
            return None
        if not isinstance(value, int) or isinstance(value, bool):
            self.bad(f"{path}.{key}" if path else key, "expected an integer")
            return None
        return value

    def string(self, obj: dict, key: str, path: str) -> str | None:
        value = obj.get(key)
        if not isinstance(value, str):
            self.bad(f"{path}.{key}" if path else key, "expected a string")
            return None
        return value

    def matrix(self, value, path: str) -> IntegerMatrix | None:
        if not isinstance(value, list) or any(not isinstance(r, list) for r in value):
            self.bad(path, "expected a matrix as nested row lists")
            return None
        for r in value:
            if any(not isinstance(x, int) or isinstance(x, bool) for x in r):
                self.bad(path, "matrix entries must be integers")
                return None
        try:
            return IntegerMatrix.from_rows(value)
        except ValueError as exc:
            self.bad(path, str(exc))
            return None

    def polynomial(self, value, path: str) -> IntPolynomial | None:
        if not isinstance(value, list) or any(
                not isinstance(c, int) or isinstance(c, bool) for c in value):
            self.bad(path, "expected a polynomial as an ascending coefficient list")
            return None
        return IntPolynomial.from_coeffs(value)

    def obj_list(self, obj: dict, key: str, path: str):
        value = obj.get(key)
        if value is None:
            self.bad(f"{path}.{key}" if path else key, "missing required key")
            return None
        if not isinstance(value, list) or any(not isinstance(x, dict) for x in value):
            self.bad(f"{path}.{key}" if path else key, "expected a list of objects")
            return None
        return value


def parse_configuration(doc) -> ParseResult:
    """Build a configuration from a decoded document.

    Returns the configuration (or None if it could not be assembled), the
    structural violations, and the list of unknown key paths.
    """
    r = _Reader()
    if not isinstance(doc, dict):
        r.bad("", "top-level document must be an object")
        return ParseResult(None, r.violations, r.unknown)
    r.check_keys(doc, _TOP_KEYS, "")

    n = r.integer(doc, "n", "")
    original_n = r.integer(doc, "original_n", "")
    original_s = r.integer(doc, "original_s", "")

    components: list[CurveComponent] = []
    raw_components = r.obj_list(doc, "components", "")
    if raw_components is not None:
        for idx, raw in enumerate(raw_components):
            path = f"components[{idx}]"
            r.check_keys(raw, _COMPONENT_KEYS, path)
            cid = r.string(raw, "id", path)
            genus = r.integer(raw, "genus", path)
            mu = r.integer(raw, "transversal_rank", path)
            loops_raw = raw.get("loop_monodromies")
            loops: list[IntegerMatrix] = []
            if not isinstance(loops_raw, list):
                r.bad(f"{path}.loop_monodromies", "expected a list of matrices")
            else:
                for w, m in enumerate(loops_raw):
                    parsed = r.matrix(m, f"{path}.loop_monodromies[{w}]")
                    if parsed is not None:
                        loops.append(parsed)
            if None in (cid, genus, mu):
                continue
            components.append(CurveComponent(cid, genus, mu, tuple(loops)))

    points: list[SpecialPoint] = []
    raw_points = r.obj_list(doc, "special_points", "")
    if raw_points is not None:
        for idx, raw in enumerate(raw_points):
            path = f"special_points[{idx}]"
            r.check_keys(raw, _POINT_KEYS, path)
            qid = r.string(raw, "id", path)
            low = r.integer(raw, "fq_rank_low", path)
            high = r.integer(raw, "fq_rank_high", path)
            costalk = r.integer(raw, "costalk_rank", path, required=False)
            branches: list[Branch] = []
            raw_branches = r.obj_list(raw, "branches", path)
            ok = raw_branches is not None
            if ok:
                for k, rb in enumerate(raw_branches):
                    bpath = f"{path}.branches[{k}]"
                    r.check_keys(rb, _BRANCH_KEYS, bpath)
                    bc = r.string(rb, "component_id", bpath)
                    bm = r.matrix(rb.get("monodromy"), f"{bpath}.monodromy")
                    if bc is None or bm is None:
                        ok = False
                        continue
                    branches.append(Branch(bc, bm))
            iota = r.matrix(raw.get("iota"), f"{path}.iota")
            if not ok or None in (qid, low, high) or iota is None:
                continue
            points.append(SpecialPoint(qid, tuple(branches), low, high, iota, costalk))

    isolated: list[IsolatedPoint] = []
    raw_isolated = r.obj_list(doc, "isolated_points", "")
    if raw_isolated is not None:
        for idx, raw in enumerate(raw_isolated):
            path = f"isolated_points[{idx}]"
            r.check_keys(raw, _ISOLATED_KEYS, path)
            rid = r.string(raw, "id", path)
            mu = r.integer(raw, "milnor_number", path)
            if None in (rid, mu):
                continue
            isolated.append(IsolatedPoint(rid, mu))

    polar = None
    if "polar_data" in doc:
        raw_polar = doc["polar_data"]
        if (not isinstance(raw_polar, list)
                or any(not isinstance(p, list) or len(p) != 2
                       or any(not isinstance(x, int) or isinstance(x, bool) for x in p)
                       for p in raw_polar)):
            r.bad("polar_data", "expected a list of [lambda_k, clk_betti_k] integer pairs")
        else:
            polar = tuple((p[0], p[1]) for p in raw_polar)

    monodromy = None
    if "monodromy_data" in doc:
        raw_md = doc["monodromy_data"]
        if not isinstance(raw_md, dict):
            r.bad("monodromy_data", "expected an object")
        else:
            r.check_keys(raw_md, _MONODROMY_KEYS, "monodromy_data")
            char = r.polynomial(raw_md.get("char_poly"), "monodromy_data.char_poly")
            comps_raw = raw_md.get("component_char_polys")
            comp_polys: list[IntPolynomial] = []
            ok = isinstance(comps_raw, list)
            if not ok:
                r.bad("monodromy_data.component_char_polys", "expected a list of polynomials")
            else:
                for i, p in enumerate(comps_raw):
                    parsed = r.polynomial(p, f"monodromy_data.component_char_polys[{i}]")
                    if parsed is None:
                        ok = False
                    else:
                        comp_polys.append(parsed)
            eigen = _parse_eigen_list(r, raw_md, "eigen_dims")
            jordan = _parse_eigen_list(r, raw_md, "jordan_sizes")
            if char is not None and ok and eigen is not None and jordan is not None:
                monodromy = MonodromyData(char, tuple(comp_polys), eigen, jordan)

    if r.violations or None in (n, original_n, original_s):
        return ParseResult(None, r.violations, r.unknown)

    cfg = SliceConfiguration(
        n=n, original_n=original_n, original_s=original_s,
        components=tuple(components),
        special_points=tuple(points),
        isolated_points=tuple(isolated),
        polar_data=polar,
        monodromy_data=monodromy,
    )
    return ParseResult(cfg, [], r.unknown)


def _parse_eigen_list(r: _Reader, raw_md: dict, key: str) -> tuple[EigenvalueData, ...] | None:
    if key not in raw_md:
        return ()
    raw = raw_md[key]
    if not isinstance(raw, list) or any(not isinstance(e, dict) for e in raw):
        r.bad(f"monodromy_data.{key}", "expected a list of objects")
        return None
    out = []
    for i, e in enumerate(raw):
        path = f"monodromy_data.{key}[{i}]"
        r.check_keys(e, _EIGEN_KEYS, path)
        label = r.string(e, "eigenvalue", path)
        total = r.integer(e, "total", path)
        comps = e.get("components")
        if (not isinstance(comps, list)
                or any(not isinstance(x, int) or isinstance(x, bool) for x in comps)):
            r.bad(f"{path}.components", "expected a list of integers")
            return None
        if label is None or total is None:
            return None
        out.append(EigenvalueData(label, total, tuple(comps)))
    return tuple(out)


def serialize_configuration(cfg: SliceConfiguration) -> dict:
    """Plain-dict form of a configuration; inverse of parse_configuration."""
    doc: dict = {
        "n": cfg.n,
        "original_n": cfg.original_n,
        "original_s": cfg.original_s,
        "components": [
            {"id": c.id, "genus": c.genus, "transversal_rank": c.transversal_rank,
             "loop_monodromies": [m.tolist() for m in c.loop_monodromies]}
            for c in cfg.components
        ],
        "special_points": [
            _point_dict(q) for q in cfg.special_points
        ],
        "isolated_points": [
            {"id": p.id, "milnor_number": p.milnor_number} for p in cfg.isolated_points
        ],
    }
    if cfg.polar_data is not None:
        doc["polar_data"] = [[lam, clk] for lam, clk in cfg.polar_data]
    if cfg.monodromy_data is not None:
        md = cfg.monodromy_data
        entry: dict = {
            "char_poly": list(md.char_poly.coeffs),
            "component_char_polys": [list(p.coeffs) for p in md.component_char_polys],
        }
        if md.eigen_dims:
            entry["eigen_dims"] = [_eigen_dict(e) for e in md.eigen_dims]
        if md.jordan_sizes:
            entry["jordan_sizes"] = [_eigen_dict(e) for e in md.jordan_sizes]
        doc["monodromy_data"] = entry
    return doc


def _point_dict(q: SpecialPoint) -> dict:
    out = {
        "id": q.id,
        "branches": [{"component_id": b.component_id, "monodromy": b.monodromy.tolist()}
                     for b in q.branches],
        "fq_rank_low": q.fq_rank_low,
        "fq_rank_high": q.fq_rank_high,
        "iota": q.iota.tolist(),
    }
    if q.costalk_rank is not None:
        out["costalk_rank"] = q.costalk_rank
    return out


def _eigen_dict(e: EigenvalueData) -> dict:
    return {"eigenvalue": e.eigenvalue, "total": e.total, "components": list(e.components)}


def load_path(path) -> tuple[ParseResult | None, str | None]:
    """Read and decode a configuration file.

    Returns (result, error): error is a human-readable message for an
    unreadable or undecodable file, in which case result is None.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return None, f"unreadable file: {exc}"
    return load_bytes(raw)


def load_bytes(raw: bytes) -> tuple[ParseResult | None, str | None]:
    """Decode and parse a document's bytes; (result, error) as `load_path`.

    Every decoder failure is an error, never an exception: bad UTF-8 or
    JSON and integer literals past the interpreter's digit limit (all
    ValueError), and nesting too deep for the decoder (RecursionError).
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        return None, f"malformed document: {exc}"
    return parse_configuration(doc), None
