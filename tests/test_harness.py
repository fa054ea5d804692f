"""The benchmark harness imports vancoh by name: every name it reads must
still exist, or a deletion in the library shows up only as a failed
benchmark run.  It also names functions in span-name strings, and a
stranded one reads 0 without failing, so those stranded today are pinned.
The harness also repeats passes over the same documents in
one process, so the library must keep no results from one call to the
next, or a repeated pass would time a cache.  The README's python examples
import vancoh by name too, and must keep importing.  Inside the library,
modules read each other's private names only at the one handoff of iota
echelons from validation to the engine, so that coupling cannot spread
unseen: `model` echelons iota with `linalg._echelon`, and `engine` calls
`model._validate` and finishes copies of the echelons with
`linalg._back_normalise`.  Outside `linalg`, only `engine._build_j` builds
a `Submodule`, from those echelons, so every other lattice is a Hermite
basis from `image`, `kernel` or `intersect`.  A group's text is written
only by `report._group_dict`, into the report document that the text
report and the corpus check read.  JSON is indented only by
`report`'s own writer: no module calls `json.dumps` or `json.dump` with
``indent``, the stdlib's pure-Python path.  The test oracles import the
standard library alone, so what the differential tests compare the
elimination core against shares no code with it.  The library must parse
under the oldest Python that pyproject.toml admits.  Its record types
are built without generated code, which took about a third of
``import vancoh.cli``: no library module imports `dataclasses`, and a
fresh interpreter importing the command line loads neither `dataclasses`
nor `inspect` beyond what `importlib.resources` loads.  CI runs the tier-1
command of ROADMAP.md on each supported version, with the test
dependencies that pyproject.toml's ``test`` extra lists."""

import ast
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
LIBRARY = ROOT / "src" / "vancoh"
README = ROOT / "README.md"
ORACLES = Path(__file__).resolve().parent / "oracles.py"

CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter"}
MUTATORS = {"append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
            "clear", "remove", "discard", "__setitem__"}


def harness_names(*files: str) -> set[tuple[str, str]]:
    """(module, name) for each ``from vancoh... import name`` in the files,
    and for each attribute read off a vancoh module imported that way."""
    names = set()
    for file in files:
        tree = ast.parse((BENCH / file).read_text())
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "vancoh":
                for alias in node.names:
                    names.add((node.module, alias.name))
                    modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and isinstance(node.ctx, ast.Load) and node.value.id in modules):
                names.add((modules[node.value.id], node.attr))
    return names


def test_bench_reads_existing_names():
    names = harness_names("worker.py", "tracer.py")
    assert {("vancoh.cli", "run"), ("vancoh.loader", "load_path"),
            ("vancoh.model", "validate"), ("vancoh.report", "render_json"),
            ("vancoh.linalg", "IntegerMatrix"), ("vancoh.linalg", "Submodule")} <= names
    assert [f"{module}.{name}" for module, name in sorted(names)
            if not exists(module, name)] == []


def span_names(run_source: str, tracer_source: str) -> set[str]:
    """The ``layer.function`` span names the bench reads as strings: the
    values of ``CALL_COUNTS`` and the keys of ``calls.get`` and
    ``self_s.get`` in run.py, and the members of ``STAGES`` in tracer.py."""
    names = set()
    for source, table in ((run_source, "CALL_COUNTS"), (tracer_source, "STAGES")):
        for node in ast.walk(ast.parse(source)):
            if (isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict)
                    and any(isinstance(t, ast.Name) and t.id == table for t in node.targets)):
                for value in node.value.values:
                    members = value.elts if isinstance(value, ast.Tuple) else [value]
                    names.update(m.value for m in members)
    for node in ast.walk(ast.parse(run_source)):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "get" and node.args
                and isinstance(node.args[0], ast.Constant) and reads_spans(node.func.value)):
            names.add(node.args[0].value)
    return names


def reads_spans(node: ast.expr) -> bool:
    """``node`` is ``calls`` or ``<something>["self_s"]``."""
    if isinstance(node, ast.Subscript):
        return isinstance(node.slice, ast.Constant) and node.slice.value == "self_s"
    return isinstance(node, ast.Name) and node.id == "calls"


def test_bench_span_names_stranded_are_pinned():
    names = span_names((BENCH / "run.py").read_text(), (BENCH / "tracer.py").read_text())
    assert {"linalg.kernel", "model.validate", "engine.component_cohomology"} <= names
    # ROADMAP item 1 feeds these metrics from names that exist and empties the list.
    assert stranded(names) == [
        "engine.build_j", "engine.decompose", "engine.lower_bound_lowest", "engine.min_bound",
        "engine.polar_bounds", "engine.six_term_check", "engine.upper_bound_lowest",
        "linalg.hnf_columns"]


def test_span_name_reader_finds_planted_names():
    run_source = """
CALL_COUNTS = {"a_calls": "linalg.kernel", "b_calls": "linalg.retired"}
OTHER = {"c_calls": "model.other"}

def values(calls, layer):
    return (calls.get("engine.analyze", 0), layer["self_s"].get("model.gone", 0.0),
            layer["stage_s"].get("engine.stage", 0.0), layer.get("cli.run"))
"""
    tracer_source = 'STAGES = {"engine.stage": ("engine.old", "engine.older")}\n'
    names = span_names(run_source, tracer_source)
    assert names == {"linalg.kernel", "linalg.retired", "engine.analyze", "model.gone",
                     "engine.old", "engine.older"}
    assert stranded(names) == ["engine.old", "engine.older", "linalg.retired", "model.gone"]


def stranded(names: set[str]) -> list[str]:
    """Each ``layer.function`` name that is not an attribute of ``vancoh.layer``."""
    return [name for name in sorted(names) if not exists(*f"vancoh.{name}".rsplit(".", 1))]


def exists(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of ``module``."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__")
                                  and importlib.util.find_spec(f"{module}.{name}") is not None)


def readme_imports(markdown: str) -> set[tuple[str, str]]:
    """(module, name) for each ``from vancoh... import name`` in the
    ```python blocks of ``markdown``."""
    names = set()
    for block in re.findall(r"^```python\n(.*?)^```", markdown, re.M | re.S):
        for node in ast.walk(ast.parse(block)):
            if isinstance(node, ast.ImportFrom) and node.module.split(".")[0] == "vancoh":
                names.update((node.module, alias.name) for alias in node.names)
    return names


def test_readme_imports_existing_names():
    names = readme_imports(README.read_text())
    assert {("vancoh", "matrix"), ("vancoh", "analyze")} <= names
    assert [f"{module}.{name}" for module, name in sorted(names)
            if not exists(module, name)] == []


def test_readme_import_check_finds_planted_names():
    planted = """
```python
from vancoh import (matrix,
                    retired_name)
from vancoh.linalg import image
import json
```

```sh
from vancoh import shell_text
```
"""
    names = readme_imports(planted)
    assert names == {("vancoh", "matrix"), ("vancoh", "retired_name"),
                     ("vancoh.linalg", "image")}
    assert [f"{module}.{name}" for module, name in sorted(names)
            if not exists(module, name)] == ["vancoh.retired_name"]


def call_time_caches(source: str) -> list[str]:
    """Each place in a module's source that can keep results across calls:
    a use of ``functools.cache`` or ``lru_cache``, a ``global`` statement,
    and a write from inside a function to a dict, list or set bound at
    module level."""
    tree = ast.parse(source)
    found = []
    containers = set()
    for node in tree.body:
        value = node.value if isinstance(node, (ast.Assign, ast.AnnAssign)) else None
        if (isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp,
                               ast.SetComp))
                or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                    and value.func.id in CONTAINER_CALLS)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            containers |= {t.id for t in targets if isinstance(t, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [(node.lineno, f"functools.{a.name}") for a in node.names
                      if a.name in ("cache", "lru_cache")]
        elif (isinstance(node, ast.Attribute) and node.attr in ("cache", "lru_cache")
              and isinstance(node.value, ast.Name) and node.value.id == "functools"):
            found.append((node.lineno, f"functools.{node.attr}"))
        elif isinstance(node, ast.Global):
            found.append((node.lineno, f"global {', '.join(node.names)}"))
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        for node in ast.walk(fn):
            if (isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del))
                    and isinstance(node.value, ast.Name) and node.value.id in containers):
                found.append((node.lineno, f"{node.value.id}[...] written"))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS and isinstance(node.func.value, ast.Name)
                  and node.func.value.id in containers):
                found.append((node.lineno, f"{node.func.value.id}.{node.func.attr}"))
    return [f"line {line}: {what}" for line, what in sorted(set(found))]


def test_library_keeps_nothing_across_calls():
    sites = [f"{path.relative_to(LIBRARY)} {site}" for path in sorted(LIBRARY.rglob("*.py"))
             for site in call_time_caches(path.read_text())]
    assert sites == []


def test_cache_check_finds_planted_caches():
    planted = """
import functools
from functools import lru_cache
SEEN = {}
LOG = []
LIMITS = {"rank": 9}

@functools.cache
def f(x):
    SEEN[x] = LIMITS["rank"]
    LOG.append(x)
    return x

def g():
    global LOG
"""
    assert call_time_caches(planted) == [
        "line 3: functools.lru_cache", "line 8: functools.cache", "line 10: SEEN[...] written",
        "line 11: LOG.append", "line 15: global LOG"]


def private_reads(sources: dict[str, str]) -> list[str]:
    """``reader reads module._name`` for each ``_``-prefixed, non-dunder
    name that one package module takes from another: by
    ``from .module import _name``, or as an attribute of a module bound by
    ``from . import module``.  ``sources`` maps module names to source."""
    found = set()
    for reader, source in sources.items():
        tree = ast.parse(source)
        siblings = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    if node.module is None:
                        siblings[alias.asname or alias.name] = alias.name
                    elif is_private(alias.name):
                        found.add(f"{reader} reads {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in siblings and is_private(node.attr)):
                found.add(f"{reader} reads {siblings[node.value.id]}.{node.attr}")
    return sorted(found)


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def test_private_reads_are_the_iota_echelon_handoff():
    sources = {".".join(path.relative_to(LIBRARY).with_suffix("").parts): path.read_text()
               for path in sorted(LIBRARY.rglob("*.py"))}
    assert private_reads(sources) == [
        "engine reads linalg._back_normalise", "engine reads model._validate",
        "model reads linalg._echelon"]


def test_private_read_check_finds_planted_reads():
    planted = {
        "a": """
from . import b, c as cc, __version__
from .b import _hidden, public, __all__

x = b._one(cc._two, b.public, b.__dict__, _hidden, public)
""",
        "b": "def _one(*args):\n    return args\n",
    }
    assert private_reads(planted) == ["a reads b._hidden", "a reads b._one", "a reads c._two"]


def calls_of(name: str, source: str) -> list[str]:
    """The innermost enclosing function (``<module>`` at top level) of each
    call of ``name`` in a module's source, in source order: a call by the
    name, by a name it is imported as, or as a module attribute."""
    tree = ast.parse(source)
    names = {name} | {alias.asname for node in ast.walk(tree)
                      if isinstance(node, ast.ImportFrom) for alias in node.names
                      if alias.name == name and alias.asname}
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call)
                    and ((isinstance(child.func, ast.Name) and child.func.id in names)
                         or (isinstance(child.func, ast.Attribute)
                             and child.func.attr == name))):
                found.append(where)
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(tree, "<module>")
    return found


def test_submodules_are_built_in_linalg_and_build_j():
    calls = [f"{path.relative_to(LIBRARY).with_suffix('')}.{where}"
             for path in sorted(LIBRARY.rglob("*.py")) if path != LIBRARY / "linalg.py"
             for where in calls_of("Submodule", path.read_text())]
    assert calls == ["engine._build_j"]


def test_group_text_is_written_by_the_report_document_alone():
    calls = [f"{path.relative_to(LIBRARY).with_suffix('')}.{where}"
             for path in sorted(LIBRARY.rglob("*.py"))
             for where in calls_of("format_group", path.read_text())]
    assert calls == ["report._group_dict"]


def test_submodule_call_check_finds_planted_calls():
    planted = """
from . import linalg
from .linalg import Submodule, Submodule as Lattice, image

a = Submodule(m)

def f(m):
    def g():
        return Lattice(m)
    return linalg.Submodule(m), g, image(m), isinstance(a, Submodule), linalg.Submodule
"""
    assert calls_of("Submodule", planted) == ["<module>", "g", "f"]


def indenting_dumps(source: str) -> list[str]:
    """Each call of ``json.dumps`` or ``json.dump`` with an ``indent``
    keyword in a module's source: by attribute of ``json`` (or a name it is
    imported as), or by a name imported from ``json``."""
    tree = ast.parse(source)
    modules, functions = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "json"}
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            functions.update({alias.asname or alias.name: alias.name for alias in node.names
                              if alias.name in ("dump", "dumps")})
    found = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and any(k.arg == "indent" for k in node.keywords)):
            continue
        if (isinstance(node.func, ast.Attribute) and node.func.attr in ("dump", "dumps")
                and isinstance(node.func.value, ast.Name) and node.func.value.id in modules):
            found.append((node.lineno, f"json.{node.func.attr}"))
        elif isinstance(node.func, ast.Name) and node.func.id in functions:
            found.append((node.lineno, f"json.{functions[node.func.id]}"))
    return [f"line {line}: {what}" for line, what in sorted(found)]


def test_json_is_indented_by_the_report_writer_alone():
    # render_json writes the indentation around C-encoded leaves; the
    # stdlib's indenting encoder is pure Python and must not come back
    calls = [f"{path.relative_to(LIBRARY)} {call}" for path in sorted(LIBRARY.rglob("*.py"))
             for call in indenting_dumps(path.read_text())]
    assert calls == []


def test_indent_check_finds_planted_calls():
    planted = """
import json
import json as j
from json import dumps, dump as put

a = json.dumps(x, sort_keys=True, indent=2)
b = j.dump(x, f, indent=None)
c = dumps(x) + json.dumps(x, separators=(",", ":"))
d = put(x, f, indent=4) + dumps(x, indent="\\t") + other.dumps(x, indent=2)
"""
    assert indenting_dumps(planted) == [
        "line 6: json.dumps", "line 7: json.dump", "line 9: json.dump", "line 9: json.dumps"]


def imports(source: str) -> list[tuple[int, str]]:
    """(line, module) for each module a source imports by ``import`` or
    ``from ... import``, in order; a relative import names its dots."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((node.lineno, "." * node.level + (node.module or "")))
    return sorted(found)


def outside_stdlib(source: str) -> list[str]:
    """Each module a source imports that is not in the standard library."""
    return [f"line {line}: {module}" for line, module in imports(source)
            if module.split(".")[0] not in sys.stdlib_module_names]


def test_oracles_import_the_standard_library_alone():
    # the oracles that TestDifferential and the engine tests compare vancoh
    # against must not reach vancoh, nor helpers, which imports it
    assert "from fractions import Fraction" in ORACLES.read_text()
    assert outside_stdlib(ORACLES.read_text()) == []


def test_stdlib_check_finds_planted_imports():
    planted = """
from __future__ import annotations
import math, vancoh.linalg as la
from fractions import Fraction
from vancoh import matrix
from . import sibling
import helpers, json
from hypothesis import given
"""
    assert outside_stdlib(planted) == [
        "line 3: vancoh.linalg", "line 5: vancoh", "line 6: .", "line 7: helpers",
        "line 8: hypothesis"]


def imports_of(package: str, source: str) -> list[str]:
    """Each import in a source of the top-level module `package` or of one
    of its submodules; a relative import is a sibling's, not one of these."""
    return [f"line {line}: {module}" for line, module in imports(source)
            if module.split(".")[0] == package]


def test_library_never_imports_dataclasses():
    for path in LIBRARY.glob("**/*.py"):
        assert imports_of("dataclasses", path.read_text()) == [], path.name


def test_dataclasses_check_finds_planted_imports():
    planted = """
import dataclasses
from dataclasses import dataclass, field
import json, dataclasses as dc
from . import dataclasses
from .dataclasses import dataclass
import dataclasses_json
def f():
    from dataclasses import replace
"""
    assert imports_of("dataclasses", planted) == [
        "line 2: dataclasses", "line 3: dataclasses", "line 4: dataclasses",
        "line 9: dataclasses"]


# generated-code machinery that `import vancoh.cli` must not load
MACHINERY = ("dataclasses", "inspect")


def machinery_loaded(module: str, path: Path) -> list[str]:
    """Those of MACHINERY that importing `module` from `path` loads in a
    fresh interpreter, started with -S so that no site .pth file loads or
    hides one.  `importlib.resources`, which `vancoh.corpus` reads and which
    imports inspect itself from Python 3.12 on, is imported first, and what
    it loads is not counted."""
    code = ("import sys, importlib.resources; before = set(sys.modules); "
            f"import {module}; print(*sorted(set({MACHINERY!r}).intersection(sys.modules) "
            "- before))")
    return subprocess.run([sys.executable, "-S", "-c", code], check=True, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": str(path)}).stdout.split()


def test_cli_import_loads_no_generated_code_machinery():
    assert machinery_loaded("vancoh.cli", LIBRARY.parent) == []


def test_machinery_check_finds_planted_imports(tmp_path):
    (tmp_path / "plain.py").write_text("import json, collections\n")
    (tmp_path / "records.py").write_text("from dataclasses import dataclass\n")
    assert machinery_loaded("plain", tmp_path) == []
    # dataclasses imports inspect, which from 3.12 on is loaded beforehand
    assert machinery_loaded("records", tmp_path) == (
        ["dataclasses", "inspect"] if sys.version_info < (3, 12) else ["dataclasses"])


def too_new(source: str, version: tuple[int, int]) -> str | None:
    """The syntax error `source` gives when parsed as `version`'s grammar,
    or None when it parses."""
    try:
        ast.parse(source, feature_version=version)
    except SyntaxError as exc:
        return str(exc)
    return None


def project() -> dict:
    """The ``[project]`` table of pyproject.toml."""
    tomllib = pytest.importorskip("tomllib")
    return tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]


def requires_python() -> tuple[int, int]:
    """The minimum version that pyproject.toml's ``requires-python`` states."""
    spec = project()["requires-python"]
    major, minor = re.fullmatch(r">=\s*(\d+)\.(\d+)", spec).groups()
    return int(major), int(minor)


def test_library_parses_at_the_minimum_version():
    version = requires_python()
    errors = {str(path.relative_to(LIBRARY)): too_new(path.read_text(), version)
              for path in sorted(LIBRARY.rglob("*.py"))}
    assert "loader.py" in errors
    assert {path: error for path, error in errors.items() if error} == {}


def test_version_check_finds_planted_syntax():
    planted = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert too_new(planted, (3, 10)) is not None
    assert too_new(planted, (3, 11)) is None


def tier1_command() -> str:
    [command] = re.findall(r"\*\*Tier-1 verify:\*\* `([^`]+)`", (ROOT / "ROADMAP.md").read_text())
    return command


def test_ci_runs_tier1_on_each_supported_version():
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load((ROOT / ".github" / "workflows" / "tier1.yml").read_text())
    assert workflow["concurrency"] == {"group": "tier1-${{ github.ref }}",
                                       "cancel-in-progress": True}
    [job] = workflow["jobs"].values()
    assert job["timeout-minutes"] == 15  # a hung draw stops the job, not GitHub's 360
    versions = job["strategy"]["matrix"]["python-version"]
    assert versions[0] == "%d.%d" % requires_python()
    assert versions == ["3.10", "3.11", "3.12", "3.13", "3.14"]
    runs = [step["run"] for step in job["steps"] if "run" in step]
    assert runs[-1] == tier1_command()
    # CI installs exactly the test extra, so an install of .[test] runs
    # every test CI runs
    [install] = [run.split("pip install", 1)[1].split() for run in runs if "pip install" in run]
    assert sorted(install) == sorted(project()["optional-dependencies"]["test"])
