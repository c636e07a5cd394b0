"""JSON-ready dicts from frozen dataclasses, and back, driven by their fields.

Encoding turns a dataclass into a dict of its fields, a tuple (named or not)
into a list and an enum into its value; everything else passes through.
Decoding reads the field types with ``typing.get_type_hints`` and accepts
exactly what encoding writes: nested dataclasses, ``NamedTuple`` rows,
``tuple[X, ...]``, fixed-length tuples, ``X | None``, ``Literal`` tags,
enums, ``bool``, ``int``, ``float`` (an int is widened), ``str`` and plain
``dict``.  An unknown, missing or wrongly typed key, or a tag outside its
``Literal``, raises ``DecodeError``, naming where it sits; values of the
right types then meet each constructor's own checks.  ``save`` and ``load``
are the one path for every versioned JSON file: a file is a
``format_version`` key beside the encoded fields, written with sorted keys,
two-space indents and a trailing newline; ``load`` refuses another version
with ``DecodeError`` and lets ``json``'s ``ValueError`` through.
``save_table`` and ``load_table`` are the one path for every CSV table: a
header line, then one line per row.  ``check_counts`` lets a config refuse,
when built, a count that decoding would later refuse.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import types
import typing
from enum import Enum
from reprlib import repr as brief    # a long value shows in part

T = typing.TypeVar("T")


class DecodeError(ValueError):
    """Stored data does not match the fields it is decoded into."""


def _encode(value: object) -> object:
    """``value`` as JSON-ready data."""
    if dataclasses.is_dataclass(value):
        return to_dict(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def to_dict(obj: object) -> dict:
    """A dataclass instance as a dict of its encoded fields."""
    return {f.name: _encode(getattr(obj, f.name)) for f in dataclasses.fields(obj)}


def from_dict(cls: type[T], data: object) -> T:
    """Build ``cls`` from what ``to_dict`` wrote; DecodeError on any mismatch."""
    return _decode(cls, data, cls.__name__)


def check_counts(obj: object, *names: str) -> None:
    """ValueError naming the first of ``obj``'s fields ``names`` that is not an
    ``int``; a ``bool`` is refused too, since decoding refuses it."""
    for name in names:
        value = getattr(obj, name)
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an int, not {brief(value)}")


def save(path: str, version: int, obj: object) -> None:
    """Write ``obj`` to ``path`` as a stored file of format ``version``."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"format_version": version, **to_dict(obj)}, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load(path: str, version: int, cls: type[T]) -> T:
    """Read what ``save`` wrote; DecodeError for another version or any mismatch."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    body = dict(data) if isinstance(data, dict) else {}
    found = body.pop("format_version", None)
    if found != version:
        raise DecodeError(f"{path}: unsupported version {found!r}, expected {version}")
    return from_dict(cls, body)


def save_table(path: str, header: typing.Sequence[str], rows: typing.Iterable) -> None:
    """Write ``header``, then ``rows``, cell by cell as the csv module does: a float
    as its shortest round-trip decimal, ``None`` empty, and a cell with a comma,
    quote, CR or LF quoted.  Rows leave the writer ending in CRLF, so that a lone
    CR is quoted too, and reach the file ending in LF."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        lines = types.SimpleNamespace(write=lambda line: fh.write(line[:-2] + "\n"))
        writer = csv.writer(lines, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)


def load_table(path: str, header: typing.Sequence[str]) -> typing.Iterator[tuple[int, list]]:
    """Yield ``(line number, cells)`` for each row of what ``save_table``
    wrote; DecodeError naming ``path`` for another header or unreadable text."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            if (found := next(reader, None)) != list(header):
                raise DecodeError(f"{path}: header {brief(found)}, expected {list(header)}")
            for cells in reader:
                yield reader.line_num, cells
        except (csv.Error, UnicodeDecodeError) as exc:
            raise DecodeError(f"{path}: {exc}") from None


@functools.cache
def _field_types(cls: type) -> dict[str, object]:
    return typing.get_type_hints(cls)


def _decode(tp: object, value: object, where: str) -> object:
    origin = typing.get_origin(tp)
    if origin is typing.Literal:
        for allowed in typing.get_args(tp):
            if type(value) is type(allowed) and value == allowed:
                return value
        raise DecodeError(f"{where}: {brief(value)} is not one of {list(typing.get_args(tp))}")
    if origin in (typing.Union, types.UnionType):
        (inner,) = [a for a in typing.get_args(tp) if a is not type(None)]
        return None if value is None else _decode(inner, value, where)
    if origin is tuple:
        args = typing.get_args(tp)
        if not isinstance(value, list):
            raise DecodeError(f"{where}: expected a list, got {brief(value)}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise DecodeError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(
            _decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise DecodeError(f"{where}: expected an object, got {brief(value)}")
        names = [f.name for f in dataclasses.fields(tp)]
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise DecodeError(f"{where}: unknown keys {unknown}")
        missing = [n for n in names if n not in value]
        if missing:
            raise DecodeError(f"{where}: missing keys {missing}")
        hints = _field_types(tp)
        return tp(**{n: _decode(hints[n], value[n], f"{where}.{n}") for n in names})
    if isinstance(tp, type) and issubclass(tp, tuple):    # a NamedTuple row
        hints = _field_types(tp)
        if not isinstance(value, list) or len(value) != len(tp._fields):
            raise DecodeError(f"{where}: expected a list of {len(tp._fields)}, got {brief(value)}")
        return tp(*(_decode(hints[n], v, f"{where}.{n}") for n, v in zip(tp._fields, value)))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise DecodeError(f"{where}: {brief(value)} is not a {tp.__name__}") from None
    if isinstance(value, bool) == (tp is bool):        # bool is an int, but not here
        if tp is float and isinstance(value, int):
            return float(value)
        if tp in (bool, int, float, str, dict) and isinstance(value, tp):
            return value
    raise DecodeError(f"{where}: expected {getattr(tp, '__name__', tp)}, got {brief(value)}")
