"""Atomic file writes: a temporary file in the target's directory, then a rename."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new one, never a part."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-molliclt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
