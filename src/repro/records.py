"""Field tables for the records a restart reads back.

Each record kind the durable store persists is declared once, as a
:class:`Record` of :class:`Field` entries next to its dumper.
:func:`dump` walks the table to build the JSON-compatible dict and
:func:`load` walks it to check and decode a stored one (:func:`load_into`
also assigns the values onto a live object). A missing or extra key, a
value of the wrong JSON type (a ``bool``, float or string where an int
belongs) or a number below its field's lower bound raises
:class:`~repro.errors.SimulationError` naming the record kind, its key
and the field, before anything is assigned.

A shape is ``int``, ``float`` (a JSON int is accepted and kept),
``bool``, ``str``, an :class:`~enum.Enum` class (stored as its value),
:class:`Map`, :class:`List`, :class:`Nullable`, a nested
:class:`Record`, a :class:`Codec`, a :class:`Union` of tagged records,
or :data:`PAYLOAD`, the queued payload whose shape the caller passes.

Each :class:`Record` compiles its table once, on first use, into
straight-line Python (a dumper, a loader and, for scalar fields on the
object itself, a setter): a restart loads one record per dirty user.
"""

from __future__ import annotations

import dataclasses
import re
import typing
from operator import attrgetter
from typing import Any, Callable, NamedTuple

from .errors import ReproError, SimulationError

__all__ = [
    "Field", "Record", "Map", "List", "Nullable", "Codec", "Union",
    "PAYLOAD", "dataclass_fields", "dump", "load", "load_into", "assign",
]

_SCALARS = (int, float, bool, str)
_INT_KEY = re.compile(r"0|-?[1-9][0-9]*")
#: Errors a constructor or decoder raises on a value it refuses.
_REFUSALS = (TypeError, ValueError, LookupError, ReproError)


class Field:
    """One key of a record.

    Args:
        name: The key in the stored dict.
        shape: What the value must be (see the module docstring).
        low: Lower bound on every number in the value, if any.
        attr: Dotted attribute path holding the value on the dumped
            object (default ``name``); ``""`` is the object itself, for
            a nested record grouping some of its owner's attributes.
    """

    __slots__ = ("name", "shape", "low", "path", "get", "owner", "leaf")

    def __init__(
        self, name: str, shape: Any, low: int | None = None,
        attr: str | None = None,
    ) -> None:
        self.name, self.shape, self.low = name, shape, low
        self.path = path = name if attr is None else attr
        self.get = attrgetter(path) if path else (lambda obj: obj)
        owner, _, self.leaf = path.rpartition(".")
        self.owner = attrgetter(owner) if owner else None


class Record:
    """A table of fields, decoded as ``cls(**values)``, as a tuple in
    table order (``cls=tuple``) or, by default, as a dict that
    :func:`assign` assigns in place. A record is dumped from the
    attributes of an object, or from a tuple in table order."""

    __slots__ = ("fields", "cls", "names", "dumper", "loader", "setter")

    def __init__(self, *fields: Field, cls: Callable | None = None) -> None:
        self.fields, self.cls = fields, cls
        self.names = frozenset(f.name for f in fields)
        # Compiled on first use, so a process pays only for the kinds it
        # touches; ``setter`` is ``None`` unless every field is a scalar
        # on the object itself.
        self.dumper = lambda obj, payload: self._compile().dumper(obj, payload)
        self.loader = lambda value, path, payload: (
            self._compile().loader(value, path, payload)
        )
        flat = all(f.shape in _SCALARS and f.path and not f.owner for f in fields)
        self.setter = (
            (lambda obj, values: self._compile().setter(obj, values)) if flat else None
        )

    def _compile(self) -> "Record":
        self.dumper, self.loader, self.setter = _compile(self)
        return self


class Map(NamedTuple):
    """A dict keyed by decimal ints (``keys=int``) or by strings."""
    item: Any
    keys: type = int


class List(NamedTuple):
    """A JSON list, decoded as ``cls(items)``."""
    item: Any
    cls: type = list


class Nullable(NamedTuple):
    """``None`` or a value of shape ``item``."""
    item: Any


class Codec(NamedTuple):
    """A live type stored as JSON of ``shape``; ``decode`` refuses a
    checked value by raising."""
    shape: Any
    encode: Callable[[Any], Any]
    decode: Callable[[Any], Any]


class Union(NamedTuple):
    """Records told apart by the tag under key ``t``; each variant's
    ``cls`` is the live type dumped to it."""
    variants: dict[str, Record]


#: The queued payload of an admission or endpoint journal.
PAYLOAD = object()


def dataclass_fields(cls: type, low: int | None = None, skip=()) -> tuple:
    """One field per dataclass field of ``cls``, typed by its annotation."""
    hints = typing.get_type_hints(cls)
    return tuple(
        Field(f.name, hints[f.name], low)
        for f in dataclasses.fields(cls) if f.name not in skip
    )


# -- dumping -------------------------------------------------------------------------


def dump(record: Record, obj: Any, payload: Any = None) -> dict[str, Any]:
    """The JSON-compatible dict of ``obj`` under ``record``."""
    if type(obj) is not tuple and record.cls is not tuple:
        return record.dumper(obj, payload)
    fields = record.fields
    if type(obj) is not tuple or len(obj) != len(fields):
        raise SimulationError(
            f"cannot persist {_show(obj)} as a {len(fields)}-tuple"
        )
    return {
        f.name: _encode(f.shape, value, payload) for f, value in zip(fields, obj)
    }


def _encode(shape: Any, value: Any, payload: Any) -> Any:
    if shape in _SCALARS:
        return value
    if isinstance(shape, Record):
        return dump(shape, value, payload)
    if isinstance(shape, Map):
        return {
            str(k): _encode(shape.item, v, payload)
            for k, v in sorted(value.items())
        }
    if isinstance(shape, List):
        return [_encode(shape.item, v, payload) for v in value]
    if isinstance(shape, Nullable):
        return None if value is None else _encode(shape.item, value, payload)
    if isinstance(shape, Codec):
        return shape.encode(value)
    if isinstance(shape, Union):
        for tag, variant in shape.variants.items():
            if type(value) is variant.cls:
                return {"t": tag, **variant.dumper(value, payload)}
        raise SimulationError(
            f"cannot persist a payload of type {type(value).__name__}"
        )
    if shape is PAYLOAD:
        return value if payload is None else _encode(payload, value, None)
    return value.value  # an Enum member


# -- loading -------------------------------------------------------------------------


class _Invalid(Exception):
    def __init__(self, path: str, problem: str) -> None:
        self.path, self.problem = path, problem


def _join(path: str, name: object) -> str:
    return f"{path}.{name}" if path else str(name)


def _show(value: Any) -> str:
    return f"{type(value).__name__} {repr(value)[:40]}"


def _need(value: Any, kind: type, path: str) -> None:
    if type(value) is not kind:
        what = "an object" if kind is dict else "a list"
        raise _Invalid(path, f"expected {what}, got {_show(value)}")


def _malformed(kind: str, key: str, bad: _Invalid) -> SimulationError:
    where = f"field {bad.path!r}: " if bad.path else ""
    return SimulationError(f"malformed {kind} {key!r}: {where}{bad.problem}")


def load(
    record: Record, state: Any, kind: str, key: str, payload: Any = None
) -> Any:
    """Check ``state`` against ``record`` and decode it; raises
    ``SimulationError`` naming ``kind``, ``key`` and the first bad field."""
    try:
        return record.loader(state, "", payload)
    except _Invalid as bad:
        raise _malformed(kind, key, bad) from None


def load_into(
    record: Record, obj: Any, state: Any, kind: str, key: str,
    payload: Any = None,
) -> None:
    """:func:`load`, then :func:`assign` the values onto ``obj``."""
    assign(record, obj, load(record, state, kind, key, payload), kind, key)


def assign(record: Record, obj: Any, values: dict, kind: str, key: str) -> None:
    """Assign values :func:`load` decoded onto ``obj``; nested dict
    records (and maps of them) go into the objects their attributes
    name. A map entry ``obj`` lacks, or a property setter refusing its
    value, raises and stops the assignments there."""
    try:
        _assign(record, obj, values, "")
    except _Invalid as bad:
        raise _malformed(kind, key, bad) from None


def _assign(record: Record, obj: Any, values: dict, path: str) -> None:
    if record.setter is not None:
        record.setter(obj, values)
        return
    for f in record.fields:
        shape, value, where = f.shape, values[f.name], _join(path, f.name)
        try:
            if isinstance(shape, Record) and shape.cls is None:
                _assign(shape, f.get(obj), value, where)
            elif isinstance(shape, Map) and isinstance(shape.item, Record) \
                    and shape.item.cls is None:
                into = f.get(obj)
                for k, item in value.items():
                    _assign(shape.item, into[k], item, _join(where, k))
            else:
                setattr(f.owner(obj) if f.owner else obj, f.leaf, value)
        except _REFUSALS as exc:
            raise _Invalid(where, f"cannot assign ({type(exc).__name__}: {exc})")


def _check(shape: Any, value: Any, path: str, low: Any, payload: Any) -> Any:
    if shape in _SCALARS:
        kind = type(value)
        if kind is not shape and not (shape is float and kind is int):
            raise _Invalid(path, f"expected {shape.__name__}, got {_show(value)}")
        if low is not None and value < low:
            raise _Invalid(path, f"must be >= {low}, got {value!r}")
        return value
    if isinstance(shape, Record):
        return shape.loader(value, path, payload)
    if isinstance(shape, Map):
        _need(value, dict, path)
        out = {}
        for k, item in value.items():
            if shape.keys is int and not _INT_KEY.fullmatch(k):
                raise _Invalid(_join(path, k), "key is not an integer")
            out[shape.keys(k)] = _check(shape.item, item, _join(path, k), low, payload)
        return out
    if isinstance(shape, List):
        _need(value, list, path)
        return shape.cls(
            _check(shape.item, item, f"{path}[{i}]", low, payload)
            for i, item in enumerate(value)
        )
    if isinstance(shape, Nullable):
        return None if value is None else _check(shape.item, value, path, low, payload)
    if isinstance(shape, Codec):
        raw = _check(shape.shape, value, path, low, payload)
        try:
            return shape.decode(raw)
        except _REFUSALS as exc:
            raise _Invalid(path, str(exc)) from None
    if isinstance(shape, Union):
        _need(value, dict, path)
        tag = value.get("t")
        variant = shape.variants.get(tag) if type(tag) is str else None
        if variant is None:
            raise _Invalid(_join(path, "t"), f"unknown tag {tag!r}")
        rest = {k: v for k, v in value.items() if k != "t"}
        return variant.loader(rest, path, payload)
    if shape is PAYLOAD:
        return value if payload is None else _check(payload, value, path, None, None)
    # An Enum class: the stored value must have its members' value type.
    if type(value) not in {type(member.value) for member in shape}:
        raise _Invalid(path, f"expected a {shape.__name__}, got {_show(value)}")
    try:
        return shape(value)
    except ValueError:
        raise _Invalid(path, f"not a {shape.__name__}: {value!r}") from None


def _key_error(record: Record, value: dict, path: str) -> _Invalid:
    for f in record.fields:
        if f.name not in value:
            return _Invalid(_join(path, f.name), "missing")
    return _Invalid(_join(path, min(value.keys() - record.names)), "unexpected key")


# -- compiling -----------------------------------------------------------------------


def _compile(record: Record) -> tuple[Callable, Callable, Callable | None]:
    """The record's dumper (from an object's attributes), loader and
    setter, as Python source built from its field table."""
    fields, cls, n = record.fields, record.cls, len(record.fields)
    env: dict[str, Any] = {
        "R": record, "NAMES": record.names, "cls": cls, "_encode": _encode,
        "_check": _check, "_join": _join, "_need": _need, "_Invalid": _Invalid,
        "_REFUSALS": _REFUSALS, "_key_error": _key_error,
        **{f"S{i}": f.shape for i, f in enumerate(fields)},
        **{f"L{i}": f.low for i, f in enumerate(fields)},
    }

    def read(i: int, f: Field) -> str:
        attr = ".".join(["obj", *filter(None, f.path.split("."))])
        return attr if f.shape in _SCALARS else f"_encode(S{i}, {attr}, payload)"

    src = ["dumper = None"]  # a tuple record is dumped by :func:`dump`
    if cls is not tuple:
        src = ["def dumper(obj, payload):", "    return {" + ", ".join(
            f"{f.name!r}: {read(i, f)}" for i, f in enumerate(fields)) + "}"]
    src += [
        "def loader(value, path, payload):",
        "    if type(value) is not dict: _need(value, dict, path)",
        "    if value.keys() != NAMES: raise _key_error(R, value, path)",
    ]
    for i, f in enumerate(fields):
        src.append(f"    v{i} = value[{f.name!r}]")
        check = f"_check(S{i}, v{i}, _join(path, {f.name!r}), L{i}, payload)"
        if f.shape in _SCALARS:
            # An exactly typed scalar within its bound is taken as it is.
            bound = "" if f.low is None else f" or v{i} < {f.low!r}"
            src.append(f"    if type(v{i}) is not S{i}{bound}: v{i} = {check}")
        else:
            src.append(f"    v{i} = {check}")
    if cls is None:
        src.append("    return {" + ", ".join(
            f"{f.name!r}: v{i}" for i, f in enumerate(fields)) + "}")
    elif cls is tuple:
        src.append("    return (" + "".join(f"v{i}, " for i in range(n)) + ")")
    else:
        kwargs = ", ".join(f"{f.name}=v{i}" for i, f in enumerate(fields))
        src += ["    try:", f"        return cls({kwargs})", "    except _REFUSALS as exc:",
                "        raise _Invalid(path, str(exc)) from None"]
    src.append("setter = None")
    if record.setter is not None:
        src += ["def setter(obj, values):"]
        src += [f"    obj.{f.leaf} = values[{f.name!r}]" for f in fields] or ["    pass"]
    # Built inside a factory so every name the functions read is a
    # closure cell, not a global lookup.
    scope: dict[str, Any] = {}
    exec("\n    ".join([f"def make({', '.join(env)}):", *src,
                         "return dumper, loader, setter"]), scope)
    return scope["make"](**env)
