"""Names other code depends on: each module's ``__all__`` and the targets
the benchmark tracer (``perfbench/traced.py``) wraps; and the names each
module imports.

A deletion that leaves a stale ``__all__`` entry, removes a function
the tracer patches, or leaves an import nothing reads fails here rather
than only in the benchmark's own test run (the project has no linter).
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import molliclt

MODULES = ["molliclt"] + sorted(f"molliclt.{info.name}" for info in pkgutil.iter_modules(molliclt.__path__))
TRACED = Path(__file__).resolve().parent.parent / "perfbench" / "traced.py"


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_target_is_callable(monkeypatch):
    # executing the file only defines its tables (the patching happens in
    # its main()) and prepends src/ to sys.path, which is restored after
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location("perfbench_traced", TRACED)
    traced = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced)
    targets = traced.SPANS + traced.COUNTERS
    assert targets
    unresolved = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert unresolved == []


def _unused_imports(source: str, exported) -> list[str]:
    """Names a module imports and never reads; ``exported`` (its ``__all__``) counts as read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used - set(exported))


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    module = importlib.import_module(name)
    assert _unused_imports(Path(module.__file__).read_text(), getattr(module, "__all__", ())) == []
