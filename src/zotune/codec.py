"""JSON-ready dicts from frozen dataclasses, and back, driven by their fields.

Encoding turns a dataclass into a dict of its fields, a tuple (named or not)
into a list and an enum into its value; everything else passes through.
Decoding reads the field types with ``typing.get_type_hints`` and accepts
what encoding writes, or the live value: nested dataclasses, ``NamedTuple``
rows, ``tuple[X, ...]``, fixed-length tuples (a list or a tuple), ``X |
None``, ``Literal`` tags, enums, ``bool``, ``str``, plain ``dict``, any
real but a ``bool`` as a ``float`` (``real``) and any integer but a
``bool`` as an ``int`` (``count``).  Anything else raises ``DecodeError``,
naming where it sits; values of the right types then meet each
constructor's own checks, which start with ``conform``: it holds a built
dataclass to its annotations, so it stores what decoding gives back.
``save`` and ``load`` are the one path for every versioned JSON file: a
file is a ``format_version`` key beside the encoded fields, written with
sorted keys, two-space indents and a trailing newline; ``load`` refuses
another version with ``DecodeError`` and lets ``json``'s ``ValueError``
through.  ``save_table`` and ``load_table`` are the one path for every CSV
table: a header line, then one line per row.  ``save_table`` returns the
``TableDigest`` of what it wrote, its rows, byte length and SHA-256, and
``load_table`` parses a table only once its bytes match the digest it is
given, so a table cut short or edited is refused before any row is read.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import io
import json
import numbers
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


def conform(obj: object) -> None:
    """Set each field of the dataclass ``obj`` to what decoding gives back for
    its annotation; DecodeError naming the first field that decoding refuses."""
    for name, tp, where in _fields(type(obj)):
        object.__setattr__(obj, name, _decode(tp, getattr(obj, name), where))


def real(value: object, where: str) -> float:
    """``value`` as a ``float``: any real number but a ``bool``, and not an
    integer too large for one."""
    if isinstance(value, float) or isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise DecodeError(f"{where}: {brief(value)} is too large for a float") from None
    raise DecodeError(f"{where}: expected float, got {brief(value)}")


def count(value: object, where: str) -> int:
    """``value`` as an ``int``: any integer but a ``bool``."""
    if type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise DecodeError(f"{where}: expected int, got {brief(value)}")


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


@dataclasses.dataclass(frozen=True)
class TableDigest:
    """What ``save_table`` wrote: the number of rows after the header, the
    byte length and the SHA-256 hex digest of the file."""

    rows: int
    size: int
    sha256: str


def save_table(path: str, header: typing.Sequence[str], rows: typing.Iterable) -> TableDigest:
    """Write ``header``, then ``rows``, cell by cell as the csv module does: a float
    as its shortest round-trip decimal, ``None`` empty, and a cell with a comma,
    quote, CR or LF quoted.  Rows leave the writer ending in CRLF, so that a lone
    CR is quoted too, and reach the file ending in LF."""
    lines = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:

        def write(line: str) -> None:
            nonlocal lines
            lines += 1
            fh.write(line[:-2] + "\n")

        writer = csv.writer(types.SimpleNamespace(write=write), lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    digest, size = hashlib.sha256(), 0
    with open(path, "rb") as fh:    # what reached the file, read back in blocks
        while block := fh.read(1 << 16):
            digest.update(block)
            size += len(block)
    return TableDigest(rows=lines - 1, size=size, sha256=digest.hexdigest())


def load_table(
    path: str, header: typing.Sequence[str], digest: TableDigest
) -> typing.Iterator[tuple[int, list]]:
    """Yield ``(line number, cells)`` for each row of what ``save_table``
    wrote, once the file's length and SHA-256 are ``digest``'s; DecodeError
    naming ``path`` for other bytes, another header, unreadable text or
    another number of rows."""
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) != digest.size:
        raise DecodeError(f"{path}: {len(data)} bytes, expected {digest.size}")
    if (found := hashlib.sha256(data).hexdigest()) != digest.sha256:
        raise DecodeError(f"{path}: SHA-256 {found}, expected {digest.sha256}")
    rows = 0
    try:
        reader = csv.reader(io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline=""))
        if (found := next(reader, None)) != list(header):
            raise DecodeError(f"{path}: header {brief(found)}, expected {list(header)}")
        for cells in reader:
            rows += 1
            yield reader.line_num, cells
    except (csv.Error, UnicodeDecodeError) as exc:
        raise DecodeError(f"{path}: {exc}") from None
    if rows != digest.rows:
        raise DecodeError(f"{path}: {rows} rows, expected {digest.rows}")


@functools.cache
def _fields(cls: type) -> tuple[tuple[str, object, str], ...]:
    """``(name, annotation, path)`` of each field of a dataclass or ``NamedTuple``."""
    hints = typing.get_type_hints(cls)
    names = cls._fields if issubclass(cls, tuple) else [f.name for f in dataclasses.fields(cls)]
    return tuple((name, hints[name], f"{cls.__name__}.{name}") for name in names)


def _decode(tp: object, value: object, where: str) -> object:
    if tp is float:
        return real(value, where)
    if tp is int:
        return count(value, where)
    if tp in (bool, str, dict) and isinstance(value, tp):
        return value
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
        if not isinstance(value, (list, tuple)):
            raise DecodeError(f"{where}: expected a list, got {brief(value)}")
        if len(args) == 2 and args[1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise DecodeError(f"{where}: expected {len(args)} items, got {len(value)}")
        return tuple(
            _decode(a, v, f"{where}[{i}]") for i, (a, v) in enumerate(zip(args, value))
        )
    if isinstance(tp, type) and isinstance(value, tp):    # built, or an enum member
        return value
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise DecodeError(f"{where}: expected an object, got {brief(value)}")
        fields = _fields(tp)
        names = [name for name, _, _ in fields]
        unknown = sorted(set(value) - set(names))
        if unknown:
            raise DecodeError(f"{where}: unknown keys {unknown}")
        missing = [n for n in names if n not in value]
        if missing:
            raise DecodeError(f"{where}: missing keys {missing}")
        return tp(**{n: _decode(a, value[n], f"{where}.{n}") for n, a, _ in fields})
    if isinstance(tp, type) and issubclass(tp, tuple):    # a NamedTuple row
        fields = _fields(tp)
        if not isinstance(value, (list, tuple)) or len(value) != len(fields):
            raise DecodeError(f"{where}: expected a list of {len(fields)}, got {brief(value)}")
        return tp(*(_decode(a, v, f"{where}.{n}") for (n, a, _), v in zip(fields, value)))
    if isinstance(tp, type) and issubclass(tp, Enum):
        try:
            return tp(value)
        except ValueError:
            raise DecodeError(f"{where}: {brief(value)} is not a {tp.__name__}") from None
    raise DecodeError(f"{where}: expected {getattr(tp, '__name__', tp)}, got {brief(value)}")
