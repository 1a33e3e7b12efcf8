"""Byte identity across changes: every command's outputs against the
committed files in ``tests/golden/`` (rewritten by its ``regenerate.py``)."""

import csv
import importlib.util
import json
import pathlib
import re

import pytest

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

MANIFEST = json.loads((GOLDEN / regenerate.MANIFEST).read_text(encoding="utf-8"))
GOLDEN_FILES = sorted(p.name for p in GOLDEN.iterdir() if p.suffix in (".json", ".csv") and p.name != regenerate.MANIFEST)


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("golden"))
        mp.delenv("MOLLICLT_CACHE_DIR", raising=False)
        return regenerate.produce()


def _flatten(node, path=""):
    """(key path, value) for every leaf of a parsed report, in file order."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _flatten(value, f"{path}.{key}" if path else key)
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _flatten(value, f"{path}[{i}]")
    else:
        yield path, node


def _leaves(name: str, text: str) -> list:
    if name.endswith(".json"):
        # a stripped report may keep the comma of the line before a dropped one
        return list(_flatten(json.loads(re.sub(r",(\s*[}\]])", r"\1", text))))
    header, *rows = csv.reader(text.splitlines())
    return [(f"row {i} {col}", value) for i, row in enumerate(rows, 1) for col, value in zip(header, row)]


def _first_difference(name: str, want: str, got: str) -> str:
    for (want_key, want_value), (got_key, got_value) in zip(_leaves(name, want), _leaves(name, got)):
        if (want_key, want_value) != (got_key, got_value):
            return f"{name}: first differing key {want_key!r}: golden {want_value!r}, now {got_key!r}: {got_value!r}"
    for i, (a, b) in enumerate(zip(want.splitlines() + [""], got.splitlines() + [""]), 1):
        if a != b:
            return f"{name}: first differing line {i}: golden {a!r}, now {b!r}"
    return f"{name}: differs"


def test_golden_versions():
    here = regenerate.versions()
    made = {key: MANIFEST[key] for key in here}
    assert made == here, (
        f"golden files were made with Python {made['python']} and numpy {made['numpy']}, "
        f"this is Python {here['python']} and numpy {here['numpy']}"
    )


def test_golden_file_set_exit_codes_and_caches(produced):
    texts, manifest = produced
    assert sorted(texts) == GOLDEN_FILES
    assert manifest["exit_codes"] == MANIFEST["exit_codes"]
    assert manifest["sha256"] == MANIFEST["sha256"]


@pytest.mark.parametrize("name", GOLDEN_FILES)
def test_golden_output(produced, name):
    want = (GOLDEN / name).read_text(encoding="utf-8")
    got = produced[0].get(name)
    assert got is not None, f"{name}: no longer written"
    assert got == want, _first_difference(name, want, got)
