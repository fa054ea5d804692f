"""Reading and writing configuration documents.

A configuration is one JSON document.  The record tables below are the
single statement of its format: each lists one record's keys, which are the
field names of its `model` record type, in the order they are checked, with
the kind of value each holds; a key is optional exactly when its field has
a default.  `parse_configuration` and `serialize_configuration` both walk
them.  Leaves, lists and records are each read one way wherever they sit,
the document itself included; a matrix or polynomial leaf is built by its
constructor, which alone checks the entries, and the constructor's
ValueError text becomes the violation detail.

Parsing never throws on bad content, from the raw bytes on: problems come
back as violations, one per malformed position or one for a document that
does not decode, so a batch run can keep going on the other inputs.
Unknown keys are collected separately; strict mode turns them into
violations.  `load_path` is the one reader of a file, and `load_bytes` of
a document's bytes, which it hashes.
"""

from __future__ import annotations

import hashlib
import json

from .linalg import IntegerMatrix, matrix
from .model import (Branch, CurveComponent, EigenvalueData, IsolatedPoint, MonodromyData,
                    SliceConfiguration, SpecialPoint, Violation)
from .polynomial import IntPolynomial


class ParseResult:
    def __init__(self, configuration: SliceConfiguration | None, violations: list[Violation],
                 unknown_keys: list[str], input_sha256: str = ""):
        self.configuration, self.violations = configuration, violations
        self.unknown_keys, self.input_sha256 = unknown_keys, input_sha256

    def __eq__(self, other):  # by value; parsing fills the fields in as it goes
        return type(other) is ParseResult and vars(self) == vars(other)


def _bad(r: ParseResult, path: str, detail: str) -> None:
    r.violations.append(Violation("malformed-document", path, detail))


# Kinds of value.  `read(r, value, path)` returns the parsed value, or
# reports each malformed position in `r` and returns None; a configuration
# is only assembled from a document with no violations, so those Nones are
# never seen.  `write(parsed)` gives the plain JSON form back.

def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(type(x) is int for x in value)


def _same(value):
    return value


class _Leaf:
    """A value accepted when `ok(value)` and built as `build(value)`."""

    def __init__(self, detail: str, ok, build=_same, write=_same):
        self.detail, self.ok, self.build, self.write = detail, ok, build, write

    def read(self, r: ParseResult, value, path: str):
        try:
            if self.ok(value):
                return self.build(value)
            detail = self.detail
        except ValueError as exc:
            detail = str(exc)
        _bad(r, path, detail)
        return None


_INT = _Leaf("expected an integer", lambda v: type(v) is int)
_OPTIONAL_INT = _Leaf("expected an integer", lambda v: v is None or type(v) is int)  # null = absent
_STR = _Leaf("expected a string", lambda v: isinstance(v, str))
_POLYNOMIAL = _Leaf("expected a polynomial as an ascending coefficient list",
                    lambda v: isinstance(v, list), IntPolynomial.from_coeffs,
                    lambda p: list(p.coeffs))
_INTS = _Leaf("expected a list of integers", _is_int_list, tuple, list)
_PAIRS = _Leaf("expected a list of [lambda_k, clk_betti_k] integer pairs",
               lambda v: isinstance(v, list) and all(_is_int_list(p) and len(p) == 2 for p in v),
               lambda v: tuple(map(tuple, v)), lambda pairs: [list(p) for p in pairs])
_MATRIX = _Leaf("expected a matrix as nested row lists",
                lambda v: isinstance(v, list) and all(isinstance(row, list) for row in v),
                matrix, IntegerMatrix.tolist)


class _ListOf:
    """A list of `item` values, each read at its own index."""

    def __init__(self, item, detail: str):
        self.item, self.detail = item, detail

    def read(self, r: ParseResult, value, path: str):
        if not isinstance(value, list):
            _bad(r, path, self.detail)
            return None
        read = self.item.read
        return tuple([read(r, x, f"{path}[{i}]") for i, x in enumerate(value)])

    def write(self, values) -> list:
        return [self.item.write(x) for x in values]


_REQUIRED = object()  # the default of a field that has none


class _Record:
    """A JSON object holding one `cls` record, whose ``(key, kind)`` pairs
    are `table`; a key may be omitted when its field has a default."""

    def __init__(self, cls, *table):
        defaults = {**dict.fromkeys(cls._fields, _REQUIRED), **cls._field_defaults}
        self.cls = cls
        self.fields = [(key, kind, defaults[key]) for key, kind in table]
        self.keys = frozenset(key for key, _ in table)

    def read(self, r: ParseResult, value, path: str):
        if not isinstance(value, dict):
            _bad(r, path, "expected an object")
            return None
        prefix = f"{path}." if path else ""
        keys = self.keys
        if not keys.issuperset(value):
            r.unknown_keys.extend(f"{prefix}{key}" for key in value if key not in keys)
        args = {}
        for key, kind, default in self.fields:
            if key in value:
                args[key] = kind.read(r, value[key], prefix + key)
            elif default is _REQUIRED:
                _bad(r, prefix + key, "missing required key")
                args[key] = None
            else:
                args[key] = default
        return self.cls(**args)

    def write(self, obj) -> dict:
        out = {}
        for key, kind, default in self.fields:
            value = getattr(obj, key)
            if default is _REQUIRED or value != default:
                out[key] = kind.write(value)
        return out


def _records(*table) -> _ListOf:
    return _ListOf(_Record(*table), "expected a list of objects")


_EIGEN = _records(EigenvalueData, ("eigenvalue", _STR), ("total", _INT), ("components", _INTS))

_CONFIGURATION = _Record(
    SliceConfiguration,
    ("n", _INT),
    ("original_n", _INT),
    ("original_s", _INT),
    ("components", _records(
        CurveComponent,
        ("id", _STR),
        ("genus", _INT),
        ("transversal_rank", _INT),
        ("loop_monodromies", _ListOf(_MATRIX, "expected a list of matrices")))),
    ("special_points", _records(
        SpecialPoint,
        ("id", _STR),
        ("fq_rank_low", _INT),
        ("fq_rank_high", _INT),
        ("costalk_rank", _OPTIONAL_INT),
        ("branches", _records(Branch, ("component_id", _STR), ("monodromy", _MATRIX))),
        ("iota", _MATRIX))),
    ("isolated_points", _records(IsolatedPoint, ("id", _STR), ("milnor_number", _INT))),
    ("polar_data", _PAIRS),
    ("monodromy_data", _Record(
        MonodromyData,
        ("char_poly", _POLYNOMIAL),
        ("component_char_polys", _ListOf(_POLYNOMIAL, "expected a list of polynomials")),
        ("eigen_dims", _EIGEN),
        ("jordan_sizes", _EIGEN))),
)


def parse_configuration(doc) -> ParseResult:
    """Build a configuration from a decoded document.

    Returns the configuration (or None if it could not be assembled), the
    structural violations, and the list of unknown key paths.
    """
    result = ParseResult(None, [], [])
    cfg = _CONFIGURATION.read(result, doc, "")
    if not result.violations:
        result.configuration = cfg
    return result


def serialize_configuration(cfg: SliceConfiguration) -> dict:
    """Plain-dict form of a configuration; inverse of parse_configuration.
    Optional keys at their default are left out."""
    return _CONFIGURATION.write(cfg)


def load_path(path) -> tuple[ParseResult | None, str | None]:
    """Read, hash and parse a configuration file.

    Returns (result, None) as `load_bytes`, or (None, reason) when the file
    cannot be read, where reason is the operating system's, without the path.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return None, exc.strerror or "cannot read"
    return load_bytes(raw), None


def load_bytes(raw: bytes) -> ParseResult:
    """Hash, decode and parse a document's bytes.

    The result carries the bytes' sha256 hex digest, also when they do not
    decode.  A decoder failure is the result's one `malformed-document`
    violation at `document`, never an exception: bad UTF-8 or JSON and
    integer literals past the interpreter's digit limit (all ValueError),
    and nesting too deep for the decoder (RecursionError).
    """
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        result = ParseResult(None, [], [])
        _bad(result, "document", f"malformed document: {exc}")
    else:
        result = parse_configuration(doc)
    result.input_sha256 = hashlib.sha256(raw).hexdigest()
    return result
