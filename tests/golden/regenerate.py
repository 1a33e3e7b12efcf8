"""Rewrite the golden outputs that ``tests/test_golden.py`` compares against.

Each command of ``RUNS`` runs in-process through ``molliclt.cli.main``, in
one scratch directory with ``--out out`` and ``MOLLICLT_CACHE_DIR`` unset,
so the path fields and ``config_hash`` do not depend on where it runs.
Every report and CSV is written here, the reports without their
"timestamp" and "wall_time" lines, beside ``manifest.json``: the exit
code of each run, the SHA-256 of each ``lvalues`` cache and the Python and
numpy versions the files were made with.  Run from the repository root:

    PYTHONPATH=src python3 tests/golden/regenerate.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import tempfile

import numpy as np

from molliclt.cli import main

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = "manifest.json"

# q = 1000003 sits on the other side of numpy's 256 KB temporary-elision
# threshold from the small moduli; its lvalues run exits 1 on the FE gate
RUNS = (
    ("characters", "--q", "10007"),
    ("lvalues", "--q", "10007"),
    ("clt", "--q", "10007", "--theta", "0.5"),
    ("random", "--q", "10007", "--theta", "0.25"),
    ("second-moment", "--q", "1009", "--theta", "0.25"),
    ("second-moment", "--q", "10007", "--theta", "0.25"),
    ("lvalues", "--q", "1000003"),
    ("clt", "--q", "1000003", "--theta", "0.5"),
)


def stripped(text: str) -> str:
    """A report without its "timestamp" and "wall_time" lines."""
    return "".join(
        line for line in text.splitlines(keepends=True) if '"timestamp"' not in line and '"wall_time"' not in line
    )


def versions() -> dict[str, str]:
    return {"python": platform.python_version(), "numpy": np.__version__}


def produce() -> tuple[dict[str, str], dict]:
    """Run ``RUNS`` in the current directory: the text of each output file
    (reports stripped) by name, and the manifest without the versions."""
    exit_codes = {}
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in RUNS:
            exit_codes[" ".join(argv)] = main([*argv, "--out", "out"])
    texts, digests = {}, {}
    for path in sorted(pathlib.Path("out").rglob("*")):
        name = path.relative_to("out").as_posix()
        if path.suffix == ".bin":
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        elif path.is_file():
            text = path.read_text(encoding="utf-8")
            texts[name] = stripped(text) if path.suffix == ".json" else text
    return texts, {"exit_codes": exit_codes, "sha256": digests}


def regenerate() -> None:
    for old in HERE.iterdir():
        if old.suffix in (".json", ".csv"):
            old.unlink()
    cwd = os.getcwd()
    cache_dir = os.environ.pop("MOLLICLT_CACHE_DIR", None)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            os.chdir(scratch)
            texts, manifest = produce()
    finally:
        os.chdir(cwd)
        if cache_dir is not None:
            os.environ["MOLLICLT_CACHE_DIR"] = cache_dir
    for name, text in texts.items():
        (HERE / name).write_text(text, encoding="utf-8")
    (HERE / MANIFEST).write_text(json.dumps({**versions(), **manifest}, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    regenerate()
