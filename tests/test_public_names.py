"""Names other code depends on: each module's ``__all__`` and the targets
the benchmark tracer (``perfbench/traced.py``) wraps.

A deletion that leaves a stale ``__all__`` entry, or removes a function
the tracer patches, fails here rather than only in the benchmark's own
test run.
"""

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
