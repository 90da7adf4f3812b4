"""The package's file formats: CSV tables and JSON documents.

An output file takes the place of the old one only once it is complete."""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np


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


def write_table(path, header, rows) -> None:
    """A CSV file of ``header`` then ``rows``, written through :func:`replacing`.

    Float cells, numpy floats included, are written as ``repr``, which reads
    back exactly; ``csv`` writes every other cell as it does by itself."""
    with replacing(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v
                             for v in row])


def read_object(path, what: str, error: type[Exception]) -> dict:
    """The JSON object in the UTF-8 file ``path``; a file that cannot be opened is an OSError.

    Text that is not UTF-8 JSON, or JSON that is not an object, raises
    ``error`` naming ``what``, the file's role, and ``path``."""
    with open(path, encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as err:
            raise error(f"{what} {path} is not UTF-8 JSON: {err}") from None
    if not isinstance(record, dict):
        raise error(f"{what} {path} must hold a JSON object, got {record!r:.40}")
    return record
