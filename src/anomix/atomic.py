"""Whole-file replacement, so a reader never sees a half-written file.

A writer fills a temporary file in the target's directory and renames it
over the target only once every byte is written.  On any exception the
temporary file is removed and the previous target, if there was one, is
left as it was.  Durability across power loss (``fsync``) is not
promised.
"""

from __future__ import annotations

import contextlib
import os
import uuid


@contextlib.contextmanager
def replace_on_success(path):
    """Yield a binary file that replaces ``path`` when the block exits
    without an exception."""
    path = os.fspath(path)
    head, tail = os.path.split(path)
    # Opened by name, not through tempfile, so the new file gets the same
    # umask-derived permissions a plain open(path, "wb") would give it.
    tmp = os.path.join(head, f".{tail}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise
