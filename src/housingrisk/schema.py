"""How a JSON input value is checked: value tests, key tables, one walker, one reader.

A key table maps each key an object may hold to a :class:`Key`. ``faults``
walks a parsed object against a table and names every missing key, rejected
value and unknown key; ``read_json`` reads a UTF-8 JSON file. The config
file and its portfolio entries (``cli``), the scenario file (``synth``) and
the transforms file (``io``) declare their tables beside the code that reads
them.
"""

from __future__ import annotations

import json
import reprlib
import sys
from pathlib import Path
from typing import Callable, NamedTuple

__all__ = [
    "ANY_KEY", "Key", "distinct_strings", "instance_of", "int_at_least", "is_int", "is_number",
    "is_numbers", "is_positive", "is_ref", "list_of", "object_of", "optional", "faults", "read_json",
]

# A table whose only key is ANY_KEY takes any key, each under that entry.
ANY_KEY = "*"


class Key(NamedTuple):
    """One key of a key table: a fault reads ``<key> must be <what>`` when ``ok(value)`` is false."""

    what: str
    ok: Callable[[object], bool]
    required: bool = False
    keys: dict | None = None  # the table of an object value, or of each object in a list value


# -- value tests: each takes a value as JSON gives it -------------------------


def is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def int_at_least(least: int):
    return lambda v: is_int(v) and v >= least


def is_number(v) -> bool:
    """A finite number; JSON reads NaN, Infinity and 1e999 as floats too."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) and abs(v) <= sys.float_info.max


def is_positive(v) -> bool:
    return is_number(v) and v > 0


def is_numbers(v) -> bool:
    """A number or a list of numbers, nested to any depth (walked without recursion)."""
    stack = [v]
    while stack:
        v = stack.pop()
        if isinstance(v, (list, tuple)):
            stack.extend(v)
        elif not is_number(v):
            return False
    return True


def is_ref(v) -> bool:
    """An MSA given by 0-based index or by id."""
    return is_int(v) or isinstance(v, str)


def instance_of(kind):
    return lambda v: isinstance(v, kind)


def optional(ok):
    return lambda v: v is None or ok(v)


def list_of(ok):
    """A list of values that pass ``ok``; a tuple too, as a default may hold one."""
    return lambda v: isinstance(v, (list, tuple)) and all(map(ok, v))


def object_of(ok):
    return lambda v: isinstance(v, dict) and all(map(ok, v.values()))


def distinct_strings(v) -> bool:
    return list_of(instance_of(str))(v) and len(set(v)) == len(v)


# Long values are abbreviated in a message, but a file path is quoted whole.
_REPR = reprlib.Repr()
_REPR.maxstring = 300


def faults(table: dict, obj: dict, values: bool = True) -> list[str]:
    """Every fault of ``obj`` against ``table``.

    ``<key> is missing`` for each required key, then ``<key> must be <what>,
    got <value>`` for each rejected value, in table order, with a nested
    object's faults in place of the value that holds it (it is walked only
    if that value passed), and last one ``unknown key '<key>', ...`` for
    every depth. With ``values`` false only keys that hold nested objects
    are tested and none is required: a file's layout is checked before
    other sources override its values.
    """
    unknown: list[str] = []
    found = _walk(table, obj, "", values, unknown)
    if unknown:
        found.append("unknown key " + ", ".join(map(repr, unknown)))
    return found


def _walk(table: dict, obj: dict, where: str, values: bool, unknown: list[str]) -> list[str]:
    found = [f"{where}{k} is missing" for k, key in table.items() if values and key.required and k not in obj]
    for k in list(obj) if ANY_KEY in table else [k for k in table if k in obj]:
        key, v = table.get(k, table.get(ANY_KEY)), obj[k]
        if not (values or key.keys):
            continue
        if not key.ok(v):
            found.append(f"{where}{k} must be {key.what}, got {_REPR.repr(v)}")
        elif key.keys and isinstance(v, dict):
            found += _walk(key.keys, v, f"{where}{k}.", values, unknown)
        elif key.keys and isinstance(v, (list, tuple)):
            for i, item in enumerate(v):
                if isinstance(item, dict):
                    found += _walk(key.keys, item, f"{where}{k}[{i}].", values, unknown)
    if ANY_KEY not in table:
        unknown += [f"{where}{k}" for k in obj if k not in table]
    return found


def read_json(path: str | Path) -> object:
    """The value the UTF-8 JSON file ``path`` holds.

    ``ValueError`` names the fault of a file that is not UTF-8 JSON, that
    holds an integer past ``int``'s digit limit or that nests deeper than
    the decoder's recursion limit.
    """
    text = Path(path).read_text(encoding="utf-8")
    try:
        return json.loads(text)
    except RecursionError as exc:
        raise ValueError(str(exc)) from None
