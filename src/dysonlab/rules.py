"""The input checks: each config entry, experiment param and kernel parameter
has a row (Rule, default) in a table, and `check_table` checks against it."""

import math
import numbers
import sys
from dataclasses import dataclass
from typing import Callable

from .errors import ConfigError

REQUIRED = object()  # the default of a key that must be given


def is_int(value) -> bool:
    """An integer, Python's or numpy's; a bool is not one."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite number, Python's or numpy's, an int within float range; not a bool."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and (abs(value) <= sys.float_info.max if is_int(value) else math.isfinite(value)))


@dataclass(frozen=True)
class Rule:
    """`ok` accepts a value, `desc` names what it accepts, `to` converts it."""

    desc: str
    ok: Callable
    to: Callable = lambda value: value

    def __call__(self, key: str, value, error: type = ConfigError):
        if not self.ok(value):
            raise error(f"{key} must be {self.desc}, got {value!r}")
        try:
            return self.to(value)
        except (KeyError, TypeError, ValueError) as exc:  # e.g. KernelParameterError
            raise error(f"{key}: {exc}") from exc


POSITIVE = Rule("a number > 0", lambda v: is_real(v) and v > 0, float)
UNIT = Rule("a number in (0, 1]", lambda v: is_real(v) and 0 < v <= 1, float)


def check_table(table: dict, given: dict, owner: str, error: type = ConfigError) -> dict:
    """`table`'s keys mapped to the given values, checked and converted by their rules, or
    to their defaults, called if functions; an unknown or a missing REQUIRED key raises."""
    unknown = set(given) - set(table)
    if unknown:
        raise error(f"unknown parameters for {owner}: {sorted(unknown)}")
    values = {}
    for key, (rule, default) in table.items():
        if key in given:
            values[key] = rule(key, given[key], error)
        elif default is REQUIRED:
            raise error(f"{owner} needs a {key!r} entry")
        else:
            values[key] = default() if callable(default) else default
    return values
