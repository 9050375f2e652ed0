"""Checks on the source files themselves: no module imports a name it
never uses or defines a private name that no source file references, and
every mcexit name the benchmark in bench/ reaches still exists, so a
deletion that would break the benchmark fails here first."""

import ast
import importlib
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import mcexit

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "mcexit"
BENCH = ROOT / "bench"


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def load_bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "path", sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = parse(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert {name: line for name, line in imported.items() if name not in used} == {}


def module_level_names(tree: ast.Module) -> set[str]:
    """Names a module's top-level statements define or assign."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return names


def test_every_private_module_name_is_referenced():
    """A module-level `_name` in src/mcexit that no source file reads, by
    name or as an attribute, is a dead helper."""
    private, used = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        for name in module_level_names(tree):
            if name.startswith("_") and not name.startswith("__"):
                private[name] = path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert {name: where for name, where in private.items() if name not in used} == {}


def bench_references(path: Path) -> set[tuple[str, str]]:
    """(mcexit module, attribute) for every attribute the file reads or
    binds on a module it imports from mcexit, and on the tracer's
    `self.modules["<name>"]` table."""
    tree = parse(path)
    modules = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "mcexit":
            modules.update({a.asname or a.name: a.name for a in node.names})
        elif isinstance(node, ast.Import):
            modules.update({a.asname or a.name: "" for a in node.names if a.name == "mcexit"})
    refs = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        if isinstance(base, ast.Name) and base.id in modules:
            refs.add((modules[base.id], node.attr))
        elif (
            isinstance(base, ast.Subscript)
            and isinstance(base.value, ast.Attribute)
            and ast.unparse(base.value) == "self.modules"
            and isinstance(base.slice, ast.Constant)
        ):
            refs.add((base.slice.value, node.attr))
    return refs


def test_every_mcexit_name_the_benchmark_references_exists():
    refs = set().union(*(bench_references(p) for p in sorted(BENCH.glob("*.py"))))
    assert ("inference", "predict") in refs and ("dropout", "RngStream") in refs
    missing = []
    for module, attr in sorted(refs):
        owner = importlib.import_module(f"mcexit.{module}") if module else mcexit
        if not hasattr(owner, attr):
            missing.append(f"{module or 'mcexit'}.{attr}")
    assert missing == []
    for module in load_bench_module("tracing").MODULES:
        importlib.import_module(f"mcexit.{module}")


def model_cost_names() -> list[str]:
    """The keys of the dict bench/workloads.py's model_costs returns."""
    tree = parse(BENCH / "workloads.py")
    fn = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "model_costs")
    returned = [n.value for n in ast.walk(fn) if isinstance(n, ast.Return)]
    return [key.value for d in returned if isinstance(d, ast.Dict) for key in d.keys]


def test_every_per_layer_row_names_a_traced_function():
    """bench/run.py's per_layer maps each BENCHMARK.json per-layer row to a
    traced function by its own rules and raises KeyError for a function
    that is gone. It runs here on the real tracer's spans, with no call
    recorded."""
    run, tracing = load_bench_module("run"), load_bench_module("tracing")
    tracer = tracing.Tracer()
    try:
        tracer.install()  # names every span it can record
    finally:
        tracer.uninstall()
    names = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    cycle = {"stats": {}, "exits_taken": np.ones(1, dtype=np.int64), "wall_s": 1.0}
    costs = dict.fromkeys(model_cost_names(), 0)
    wl = SimpleNamespace(points_failed=0)
    out = run.per_layer(names, tracer, {}, [cycle], [cycle], wl, costs)
    assert list(out) == names
