"""Every name a module of the package, or a test module, imports is used in
that module, and every name the engine exports is used by the package."""

import ast
from pathlib import Path

import vesselcast
import vesselcast.engine as engine

PACKAGE = Path(vesselcast.__file__).parent
TESTS = Path(__file__).resolve().parent
# "module.name" entries imported on purpose without a use
ALLOWED = {
    "cli.fnv1a64",  # perfbench's tracer patches the name where `cli` looks it up
    "checkpoint.fnv1a64",  # and where `checkpoint` looks it up
}
# engine exports the package itself need not call
ENGINE_UNCALLED = {
    "finite_diff_check",  # the gradient oracle tests compare against
    "NonDeterministicError",  # which it raises
    "roi_diagnostics",  # perfbench's degenerate-RoI counter reads these
    "reset_roi_diagnostics",
}


def unused_imports(source: str) -> list[str]:
    """The names `source` binds by an import (other than `from __future__`)
    and never reads, in order of first binding."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in dict.fromkeys(imported) if name not in used]


def test_the_check_finds_an_unused_name_and_passes_a_used_one():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as js\nfrom .a import b, c\n"
        "def f(x: c) -> None:\n    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["js", "b"]


def test_no_module_imports_a_name_it_does_not_use():
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        found += [f"{module}.{name}" for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert sorted(set(found) - ALLOWED) == []


def test_no_test_module_imports_a_name_it_does_not_use():
    found = []
    for path in sorted(TESTS.glob("*.py")):
        found += [f"{path.stem}.{name}" for name in unused_imports(path.read_text(encoding="utf-8"))]
    assert found == []


def engine_names_read(source: str) -> set[str]:
    """The names `source` imports from the engine package or one of its
    modules, relative or absolute, and reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.removeprefix("vesselcast.") if node.level == 0 else node.module
            if module == "engine" or module.startswith("engine."):
                imported.update({alias.asname or alias.name: alias.name for alias in node.names})
    return {imported[node.id] for node in ast.walk(tree) if isinstance(node, ast.Name) and node.id in imported}


def test_the_engine_check_counts_only_names_read_from_the_engine():
    source = "import numpy as np\nfrom .engine import add, exp\nfrom .engine.rng import Rng as R\nnp.exp(R(add))\n"
    assert engine_names_read(source) == {"add", "Rng"}


def test_every_engine_export_has_a_caller_in_the_package():
    read = set()
    for path in PACKAGE.rglob("*.py"):
        if "engine" not in path.relative_to(PACKAGE).parts:
            read |= engine_names_read(path.read_text(encoding="utf-8"))
    assert sorted(set(engine.__all__) - read - ENGINE_UNCALLED) == []
