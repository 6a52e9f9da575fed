"""The type rule of config fields (``WorldSpec``, ``RunConfig``,
``ExperimentConfig``): a value of the annotated type, where a float field also
takes an int in the float range and an int field refuses a bool. Any other
value raises ConfigError naming the field; a value that passes is kept as it
is."""
from __future__ import annotations

import dataclasses
import functools
import sys
import typing

from .errors import ConfigError


def checked_value(hint, value, name: str):
    """``value`` as a field named ``name`` of type ``hint`` keeps it."""
    args = typing.get_args(hint)
    if type(None) in args:  # Optional[X]
        if value is None:
            return None
        hint = next(arg for arg in args if arg is not type(None))
    kinds = (int, float) if hint is float else hint
    if not isinstance(value, kinds) or (isinstance(value, bool) and hint is not bool):
        raise ConfigError(f"{name} must be of type {hint.__name__}, got {value!r}")
    if hint is float and isinstance(value, int) and abs(value) > sys.float_info.max:
        raise ConfigError(f"{name} is an integer too large for a float")
    return value


@functools.cache
def _field_hints(cls) -> tuple:
    """(name, type) per field, resolved once: that costs far more than a check."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in dataclasses.fields(cls))


def check_fields(config) -> None:
    """Pass every field of ``config`` through ``checked_value``."""
    for name, hint in _field_hints(type(config)):
        value = getattr(config, name)
        if type(value) is not hint:  # a value of exactly its type passes
            checked_value(hint, value, name)
