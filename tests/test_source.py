"""Static checks over the source tree, read with the stdlib ``ast``: the
library names the benchmark wraps or calls still exist, and no module or
script keeps an import it does not use."""
import ast
import importlib
from pathlib import Path

import pytest

import choquet_dist

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _tracer_functions() -> list:
    """The FUNCTIONS list of the benchmark's tracer, read without importing it."""
    for node in _parse(PERFBENCH / "tracer.py").body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "FUNCTIONS" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py has no FUNCTIONS list")


def _dotted(node: ast.Attribute) -> list[str] | None:
    """["cd", "A", "b"] for the expression cd.A.b; None unless it is a plain
    chain of names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return [node.id, *reversed(parts)]


def _workload_paths() -> set[tuple[str, ...]]:
    """Every maximal attribute chain cd.X.Y.. in the benchmark's workloads,
    without the leading cd."""
    tree = _parse(PERFBENCH / "workloads.py")
    inner = {id(n.value) for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    paths = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and id(node) not in inner:
            chain = _dotted(node)
            if chain and chain[0] == "cd":
                paths.add(tuple(chain[1:]))
    return paths


def test_benchmark_tracer_targets_resolve():
    # install() replaces each target by getattr with no default, so a missing
    # name breaks a traced run; resolve them here without installing anything
    functions = _tracer_functions()
    assert functions
    for _, modname, path in functions:
        owner = importlib.import_module(f"choquet_dist.{modname}")
        for part in path.split("."):
            assert hasattr(owner, part), f"choquet_dist.{modname}.{path}"
            owner = getattr(owner, part)


def test_benchmark_workload_names_exist():
    paths = _workload_paths()
    assert ("provider_for",) in paths
    for path in sorted(paths):
        owner = choquet_dist
        for part in path:
            assert hasattr(owner, part), "cd." + ".".join(path)
            owner = getattr(owner, part)


def _unused_imports(path: Path) -> list[str]:
    """Names a file imports (outside ``from __future__``) and never reads."""
    tree = _parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [f"{path.name}:{line}: {name}" for name, line in imported.items() if name not in used]


SOURCES = sorted(p for p in (ROOT / "src" / "choquet_dist").glob("*.py")
                 if p.name != "__init__.py") + sorted((ROOT / "scripts").glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert _unused_imports(path) == []
