"""Crash-safe output files."""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterable


def atomic_write_text(path, text: str | Iterable[str]) -> None:
    """Write ``text`` (one string, or chunks written as they come) to a
    sibling temp file, then rename it over ``path``.

    A crash or an exception at any point leaves either the old file or
    the new one, never a truncated file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
