"""Names other code depends on: each module's ``__all__``, the targets
the benchmark tracer (``perfbench/traced.py``) wraps, and the L-value
check of the benchmark runner (``perfbench/run.py``); the names each
module imports; and a reader for every exported name and for every
field and method of a dataclass.

A deletion that leaves a stale ``__all__`` entry, removes a function
the tracer patches, changes a signature the benchmark's output check
calls, or leaves an import nothing reads fails here rather than only in
the benchmark's own runs (the project has no linter).  So does an
exported name, a record field or a method that only the tests read.
"""

import ast
import importlib
import importlib.util
import pkgutil
import sys
from pathlib import Path

import pytest

import molliclt
from molliclt.cli import main
from molliclt.dirichlet_l import CentralValueSet, load_l_values, read_cache_header, save_l_values

MODULES = ["molliclt"] + sorted(f"molliclt.{info.name}" for info in pkgutil.iter_modules(molliclt.__path__))
SRC = Path(molliclt.__file__).resolve().parent
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACED = PERFBENCH / "traced.py"
# exported names no production path reads, each with the line of
# ROADMAP.md's "Standing decisions" that keeps it
KEPT_WITHOUT_READER = {
    "lambda_table": "Some oracles are kept on purpose: lambda_table ... for item 8(b)",
    "sample": "Some oracles are kept on purpose: random_model.sample",
    "e_trunc_exact": "Keep every function an acceptance criterion reads: e_trunc_exact",
    "expectation_local_L": "Keep every function an acceptance criterion reads: ... expectation_local_L",
    "selberg_minorant": "Keep every function an acceptance criterion reads: selberg_minorant",
}
# dataclass fields and methods no production path reads, each with the
# reason it stays
KEPT_MEMBERS_WITHOUT_READER = {
    "HeckeForm.weight": "ROADMAP item 8(a): the twisted values need the gamma order k/2",
    "CLTReport.total_weight": "criterion 12 compares it across reruns",
    "SelbergFunction.majorant": "criterion 10 checks the sandwich from above",
    "SelbergFunction.fourier": "criterion 10 checks the minorant's band limit",
    "DirichletPolynomial.coefficient": "Some oracles are kept on purpose: DirichletPolynomial.evaluate and coefficient",
    "DirichletPolynomial.evaluate": "Some oracles are kept on purpose: DirichletPolynomial.evaluate and coefficient",
    "FactoredInteger.divisors": "Some oracles are kept on purpose: FactoredInteger.divisors",
}


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_target_is_callable(monkeypatch):
    # executing the file only defines its tables (the patching happens in
    # its main()) and prepends src/ to sys.path, which is restored after
    monkeypatch.setattr(sys, "path", list(sys.path))
    traced = _load(TRACED, "perfbench_traced")
    targets = traced.SPANS + traced.COUNTERS
    assert targets
    unresolved = [f"{owner.__name__}.{attr}" for owner, attr, _ in targets if not callable(getattr(owner, attr, None))]
    assert unresolved == []


def test_benchmark_l_value_check_reads_an_lvalues_cache(tmp_path, monkeypatch):
    # the benchmark counts an lvalues run as correct only if this check passes
    monkeypatch.delenv("MOLLICLT_CACHE_DIR", raising=False)
    check_l_values = _load(PERFBENCH / "run.py", "perfbench_run").check_l_values
    assert main(["lvalues", "--q", "101", "--out", str(tmp_path)]) == 0
    cache = tmp_path / "cache" / "lvalues_q101.bin"
    labels = [1, 2, 50, 99]
    assert check_l_values(cache, 101, labels) is None
    head = read_cache_header(str(cache))
    _, s, _, values = load_l_values(str(cache))
    values[50] += 1e-6
    stats = {"max": head.fe_residual_max, "mean": head.fe_residual_mean}
    save_l_values(str(cache), CentralValueSet(q=101, s=s, values=values, residual_stats=stats))
    assert "chi_50" in check_l_values(cache, 101, labels)


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


def _exported(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return []


def _names_read(tree: ast.Module) -> set[str]:
    """Every name a module loads, every attribute it reads and every name it imports."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_exported_name_has_a_reader():
    # a reader is src/ itself or the benchmark, where the tracer names its
    # targets as strings; the tests do not count.  Names match by spelling,
    # so an unrelated attribute of the same name counts as a reader too.
    src = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_names_read, src.values()))
    for path in sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text())
        read |= _names_read(tree)
        read |= {node.value for node in ast.walk(tree) if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    exported = [(stem, name) for stem, tree in src.items() for name in _exported(tree)]
    allowed = read | set(KEPT_WITHOUT_READER)
    assert [f"{stem}.{name}" for stem, name in exported if name not in allowed] == []
    assert set(KEPT_WITHOUT_READER) <= {name for _, name in exported}


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass" for d in node.decorator_list)


def _reads_own_fields(node: ast.ClassDef) -> bool:
    """Whether the class walks its fields by ``dataclasses.fields``, so every field is read."""
    return any(
        isinstance(call, ast.Call) and getattr(call.func, "id", None) == "fields" for call in ast.walk(node)
    )


def _members(node: ast.ClassDef) -> list[str]:
    """The fields and non-dunder methods (properties included) of a class body."""
    names = [item.target.id for item in node.body if isinstance(item, ast.AnnAssign)]
    names += [item.name for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("__")]
    return names


def test_every_dataclass_member_has_a_reader():
    # a reader is an attribute load in src/ or the benchmark; constructing a
    # record or reading it in the tests does not count.  Names match by
    # spelling, as for the exported names.
    src = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    trees = src + [ast.parse(path.read_text()) for path in sorted(PERFBENCH.glob("*.py"))]
    read = {
        node.attr for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    members = [
        f"{node.name}.{name}"
        for tree in src
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef) and _is_dataclass(node) and not _reads_own_fields(node)
        for name in _members(node)
    ]
    unread = {member for member in members if member.split(".")[1] not in read}
    assert sorted(unread - set(KEPT_MEMBERS_WITHOUT_READER)) == []
    # every allowance still names a member without a reader
    assert sorted(set(KEPT_MEMBERS_WITHOUT_READER) - unread) == []
