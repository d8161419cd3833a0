"""One reader for every JSON input file, and crash-safe output files.

Graph files, checkpoints, train configs and oracle caches are parsed by
``parse_json`` and typed by ``json_value``, so anything wrong with one is
a ValidationError, which ``reading`` prefixes with the file's kind and path.
"""

from __future__ import annotations

import json
import os
import reprlib
import sys
from contextlib import contextmanager
from pathlib import Path

from .errors import ValidationError

_NOUNS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def parse_json(data: str | bytes):
    """Parse JSON text, or UTF-8 bytes. Bytes that are not UTF-8, bad
    syntax, nesting too deep for ``json.loads`` and an integer literal past
    Python's digit limit raise ValidationError."""
    try:
        return json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except UnicodeDecodeError as exc:
        raise ValidationError(f"not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"not valid JSON: {exc}") from exc
    except ValueError as exc:  # json.loads' only other one: int() refusing a long literal
        limit = sys.get_int_max_str_digits()
        raise ValidationError(f"an integer literal has more than {limit} digits") from exc


def read_json(path):
    """``parse_json`` of the file at ``path``; an unreadable file raises OSError."""
    return parse_json(Path(path).read_bytes())


@contextmanager
def reading(kind: str, path):
    """Prefix ``<kind> <path>: `` to a ValidationError raised inside,
    keeping its class."""
    try:
        yield
    except ValidationError as exc:
        raise type(exc)(f"{kind} {path}: {exc}") from exc


def json_value(value, kind: type, name: str):
    """``value`` as a JSON ``kind``, else a ValidationError naming ``name``
    and showing ``value``, abridged. ``int`` means a JSON integer, never a
    boolean (true loads as a Python bool, an int); ``float`` means any JSON
    number, as a float, and refuses an integer beyond float's range.
    """
    if type(value) is kind or (kind is float and type(value) is int):
        try:
            return float(value) if kind is float else value
        except OverflowError:
            raise ValidationError(f"{name} is too large for a float: {reprlib.repr(value)}") from None
    raise ValidationError(f"{name} must be {_NOUNS[kind]}, got {reprlib.repr(value)}")


def atomic_write_text(path, text: str) -> None:
    """Write ``text`` to a sibling temp file, then rename it over ``path``.

    A crash or an exception at any point leaves either the old file or
    the new one, never a truncated file.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
