"""Reference row reader and writer: the per-value walks core.from_obj and core.to_obj must match.

``reference_from_obj`` reads each field's fields, origin and arguments for
every value it reads (``_typed``), element by element for a list;
``reference_to_obj`` recurses into every field and every list element.
Nothing here is cached per class. ``reference_population_lines`` encodes a
population file's lines from one PopulationRow per agent, through
``core.to_obj``, as population_to_lines must match byte for byte.
"""

from __future__ import annotations

import json
import math
import types
from dataclasses import MISSING, fields, is_dataclass
from typing import Any, Mapping, get_args, get_origin, get_type_hints

from socialsim.core import ConfigurationError, _describe, to_obj
from socialsim.population import AgentProfile, FollowGraph, PopulationRow


def reference_from_obj(cls: type, obj: Any, what: str) -> Any:
    """An instance of dataclass ``cls`` from a JSON object of its init fields, one ``_typed`` call a value."""
    if not isinstance(obj, Mapping):
        raise ConfigurationError(f"expected a JSON object of {what}s, got {obj!r}")
    init = [f for f in fields(cls) if f.init]
    unknown = sorted(set(obj) - {f.name for f in init})
    if unknown:
        raise ConfigurationError(f"unknown {what} {unknown[0]!r}")
    hints = get_type_hints(cls)
    values = {}
    for f in init:
        if f.name not in obj:
            if f.default is MISSING and f.default_factory is MISSING:
                raise ConfigurationError(f"missing {what} {f.name!r}")
        elif "read" in f.metadata:
            values[f.name] = f.metadata["read"](obj[f.name])
        else:
            try:
                values[f.name] = _typed(hints[f.name], obj[f.name])
            except (TypeError, OverflowError):
                raise ConfigurationError(f"{what} {f.name!r} must be {_describe(hints[f.name])}, got {obj[f.name]!r}") from None
    return cls(**values)


def _typed(tp: Any, value: Any) -> Any:
    """``value`` as a value of type ``tp``; TypeError (or OverflowError) when it is not one."""
    if isinstance(tp, types.UnionType):  # T | None
        if value is None:
            return None
        (tp,) = set(get_args(tp)) - {type(None)}
    if tp is bool and isinstance(value, bool):
        return value
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if (tp is float and number and math.isfinite(value)) or (tp is str and isinstance(value, str)):
        return value
    if get_origin(tp) is list and isinstance(value, list):
        return [_typed(get_args(tp)[0], v) for v in value]
    if tp is list and isinstance(value, list):
        return value
    raise TypeError(tp)


def reference_to_obj(value: Any) -> Any:
    """The JSON value of a config object: a dataclass becomes an object of all its fields, a tuple a list."""
    if is_dataclass(value):
        return {f.name: reference_to_obj(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, (list, tuple)):
        return [reference_to_obj(v) for v in value]
    return value


def reference_population_lines(profiles: list[AgentProfile], graph: FollowGraph) -> list[str]:
    """A population file's lines: a PopulationRow per agent by ascending id, its to_obj as compact JSON."""
    return [
        json.dumps(
            to_obj(PopulationRow(p.id, p.name, sorted(p.keywords), p.verified, sorted(graph.follows_of(p.id)))),
            separators=(",", ":"),
            ensure_ascii=False,
        )
        for p in sorted(profiles, key=lambda p: p.id)
    ]
