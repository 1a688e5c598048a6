"""Atomic file writes shared by every persistence layer.

:meth:`repro.util.jsonlog.JsonLog.rewrite` (which every whole-file
store - the tuned history, compacted store shards - goes through) and
the figure and bench artifact writers all need the same
guarantee: a reader (or a resumed run) must never observe a
half-written file, even if the writer is ``kill -9``'d mid-write.  The
standard POSIX recipe - write to a temp file in the same directory,
then ``os.replace`` over the target - provides it; this module is the
one implementation of that recipe.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path


def atomic_write_text(path: str | Path, text: str) -> Path:
    """Write ``text`` to ``path`` atomically (temp file + replace).

    Parent directories are created as needed.  On any failure the temp
    file is removed, so a crash can leave either the old file or the
    new one - never a torn mixture, never stray temp litter that a
    retry would trip over.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name, suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path
