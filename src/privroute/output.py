"""File writers that every command shares: CSV tables and JSON manifests."""

from __future__ import annotations

import itertools
import json

__all__ = ["write_csv", "write_manifest"]


def write_csv(path, header: list | None, rows) -> None:
    """Write ``header`` and then ``rows`` as RFC-4180 CSV: comma-separated, CRLF-ended lines.

    With no ``header``, ``rows`` are appended to ``path``.  Each field is written
    as its ``str``, which for a Python float (what ``tolist`` gives) is its
    ``repr``: the shortest string that reads back as the same float.  Fields are
    numbers and column names, none with a comma, a quote or a line break, so
    none is quoted.
    """
    with open(path, "a" if header is None else "w", newline="", encoding="utf-8") as handle:
        for row in rows if header is None else itertools.chain([header], rows):
            handle.write(",".join(map(str, row)) + "\r\n")


def write_manifest(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
