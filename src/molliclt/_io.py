"""Atomic file writes: a temporary file in the target's directory, then a rename."""

from __future__ import annotations

import os
import tempfile


def atomic_write(path: str, data: bytes) -> None:
    """Write ``data`` to ``path`` so readers see the old file or the new one, never a part.

    The file gets the mode a plain ``open`` would give it, 0666 less the umask.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-molliclt-")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~umask)
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
