"""Exception types shared across the package, and the integer checks that raise one."""

import operator


class DataError(ValueError):
    """Input data is malformed: NaN/Inf entries, shape mismatches, bad CSV."""


class ConfigError(ValueError):
    """A requested configuration is out of range or names an unknown option."""


def as_integer(value, name: str) -> int:
    """value as an int by ``operator.index``; else a ConfigError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ConfigError(f"{name}={value!r} is not an integer") from None


def check_count(value, name: str, limit: int) -> int:
    """value as an int in [1, limit] by ``operator.index``; else a ConfigError."""
    value = as_integer(value, name)
    if not 1 <= value <= limit:
        raise ConfigError(f"{name}={value} out of range [1, {limit}]")
    return value
