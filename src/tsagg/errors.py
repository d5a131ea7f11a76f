"""Exception types shared across the package, and the count check that raises one."""

import operator


class DataError(ValueError):
    """Input data is malformed: NaN/Inf entries, shape mismatches, bad CSV."""


class ConfigError(ValueError):
    """A requested configuration is out of range or names an unknown option."""


def check_count(value, name: str, limit: int) -> int:
    """value as an int in [1, limit] by ``operator.index``; else a ConfigError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ConfigError(f"{name}={value!r} is not an integer") from None
    if not 1 <= value <= limit:
        raise ConfigError(f"{name}={value} out of range [1, {limit}]")
    return value
