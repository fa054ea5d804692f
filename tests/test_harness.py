"""The benchmark harness imports vancoh by name: every name it reads must
still exist, or a deletion in the library shows up only as a failed
benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


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


def exists(module: str, name: str) -> bool:
    """``name`` is an attribute or a submodule of ``module``."""
    mod = importlib.import_module(module)
    return hasattr(mod, name) or (hasattr(mod, "__path__")
                                  and importlib.util.find_spec(f"{module}.{name}") is not None)
