"""Output files that take the place of the old ones only once they are complete."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def replacing(path, newline: str | None = None):
    """A text file to write that takes the place of ``path`` only once complete.

    The text goes to a temporary file in the same directory, which
    ``os.replace`` moves over ``path`` when the block finishes.  If the block
    raises, ``path`` keeps its previous content and the temporary is removed.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline, encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
