"""Reading the package's text.  :func:`apply_overrides` is the one reader
of config override text, the ``config`` lines of world and scene files
included.  A file that is not text in the reading encoding is reported by
its name and its first undecodable line, like any other malformed line,
instead of by the bare codec error."""

from __future__ import annotations

import dataclasses
import numbers
from contextlib import contextmanager
from typing import Callable, Iterator, Mapping

_BOOL_WORDS = {
    "1": True, "true": True, "yes": True, "on": True,
    "0": False, "false": False, "no": False, "off": False,
}


def apply_overrides(cfg, overrides: Mapping[str, object]):
    """``cfg`` with every ``{"a.b": value}`` override applied.

    A dotted key reaches a field of a nested config group.  A string value
    is typed by the field's current value: a boolean word (1/true/yes/on,
    0/false/no/off), an int, a float, or an int tuple of the same length
    split on ``,`` or ``:``; a string field takes it as it is.  Any other
    value must fit the field: a bool for a boolean field, an integer for an
    int field, an integer or float for a float field (set as a float), a
    tuple or list of as many integers for a tuple field, and only a string
    for a string field.  ``cfg`` and each group an override reaches are
    built once from all of their overrides, so their checks see only the
    final values, whatever the order of the keys.

    Raises ``ValueError`` naming the key for an unknown field, a path
    through a field that is not a config group, a value for a whole group,
    ``seed`` (a run's seed is given apart from its config) and a value the
    field cannot take, and naming the keys that set it for a config that
    rejects its values.
    """
    if "seed" in overrides:
        raise ValueError(
            "config field 'seed' cannot be overridden; give --seed or --seeds"
        )
    paths = {key: (key.split("."), value) for key, value in overrides.items()}
    return _build(cfg, paths)


def _build(cfg, overrides: dict[str, tuple[list[str], object]]):
    """``cfg`` built once from ``{key: (its path below cfg, value)}``."""
    changes, groups = {}, {}
    names = {f.name for f in dataclasses.fields(cfg)}
    for key, ((name, *rest), value) in overrides.items():
        current = getattr(cfg, name, None)
        if name not in names or (rest and not dataclasses.is_dataclass(current)):
            raise ValueError(f"unknown config field {key!r}")
        if rest:
            groups.setdefault(name, {})[key] = rest, value
        elif dataclasses.is_dataclass(current):
            raise ValueError(
                f"config field {key!r} is a group; set its fields as {key}.<name>"
            )
        else:
            try:
                changes[name] = _typed(current, value)
            except ValueError as exc:
                raise ValueError(f"config field {key!r}: {exc}") from None
    for name, group in groups.items():
        changes[name] = _build(getattr(cfg, name), group)
    try:
        return dataclasses.replace(cfg, **changes)
    except ValueError as exc:
        fields = "field" if len(overrides) == 1 else "fields"
        keys = ", ".join(map(repr, sorted(overrides)))
        raise ValueError(f"config {fields} {keys}: {exc}") from None


def _typed(current, value):
    """``value`` typed like ``current`` if it is a string, else checked
    against it by :func:`_fitted`."""
    if not isinstance(value, str):
        return _fitted(current, value)
    if isinstance(current, bool):
        if value.lower() not in _BOOL_WORDS:
            raise ValueError(f"expected a boolean, got {value!r}")
        return _BOOL_WORDS[value.lower()]
    if isinstance(current, tuple):
        typed = tuple(int(i) for i in value.replace(":", ",").split(",") if i.strip())
        if len(typed) != len(current):
            raise ValueError(f"expected {len(current)} integers, got {value!r}")
        return typed
    return type(current)(value) if isinstance(current, (int, float)) else value


def _integer(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _fitted(current, value):
    """A value that is not a string, as the field of ``current`` takes it;
    ValueError if it is not of the field's kind."""
    if isinstance(current, bool):
        if isinstance(value, bool):
            return value
        expected = "a boolean"
    elif isinstance(current, int):
        if _integer(value):
            return int(value)
        expected = "an integer"
    elif isinstance(current, float):
        if isinstance(value, numbers.Real) and not isinstance(value, bool):
            return float(value)
        expected = "a number"
    elif isinstance(current, tuple):
        if (
            isinstance(value, (tuple, list))
            and len(value) == len(current)
            and all(map(_integer, value))
        ):
            return tuple(int(v) for v in value)
        expected = f"{len(current)} integers"
    else:
        expected = "a string"
    raise ValueError(f"expected {expected}, got {value!r}")


def _line_error(line: int, message: str) -> ValueError:
    return ValueError(f"line {line}: {message}")


@contextmanager
def named_decode_errors(
    path, error: Callable[[int, str], Exception] = _line_error
) -> Iterator[None]:
    """Turn a ``UnicodeDecodeError`` raised in the block while reading
    ``path`` into ``error(line, message)``: the 1-based number of the
    first line of ``path`` its encoding cannot decode, and a message naming
    the file.  The default error is a ``ValueError`` reading
    ``line <n>: <path> is not <encoding> text``."""
    try:
        yield
    except UnicodeDecodeError as exc:
        with open(path, "rb") as fh:
            for line, raw in enumerate(fh, start=1):
                try:
                    raw.decode(exc.encoding)
                except UnicodeDecodeError:
                    break
        raise error(line, f"{path} is not {exc.encoding} text") from exc
