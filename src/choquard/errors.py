"""Exception types shared across the package, and the checks that refuse a
malformed input document with ConfigError."""


class ChoquardError(Exception):
    """Base class for all package-specific errors."""


class InvalidParameterError(ChoquardError, ValueError):
    """A scalar argument is outside its admissible range."""


class DegenerateFieldError(ChoquardError, ValueError):
    """An operation received a field without the structure it requires
    (zero field, vanishing kinetic or nonlocal term, ...)."""


class NumericalFailureError(ChoquardError, RuntimeError):
    """An iteration produced non-finite values or failed to make progress."""

    def __init__(self, message: str, diagnostics: dict | None = None):
        super().__init__(message)
        self.diagnostics = diagnostics or {}


class CaseMismatchError(ChoquardError, ValueError):
    """Parameters do not sit at the critical exponent the requested case needs."""


class NonMonotoneMarginError(ChoquardError, RuntimeError):
    """Sampled margins are not monotone in the search knob; bisection refused."""

    def __init__(self, message: str, samples: list | None = None):
        super().__init__(message)
        self.samples = samples or []


class ConfigError(ChoquardError, ValueError):
    """A configuration, report or command-line value is malformed or has unknown keys."""


def require_keys(section, allowed: set[str] | None, required: set[str], where: str) -> dict:
    """section as a dict whose keys lie in allowed (any, if None) and cover required.

    Raises ConfigError when section is not a JSON object or its keys are off.
    """
    if not isinstance(section, dict):
        raise ConfigError(f"{where} must be a JSON object")
    section = dict(section)
    unknown = set(section) - allowed if allowed is not None else set()
    if unknown:
        raise ConfigError(f"unknown keys in {where}: {sorted(unknown, key=str)}")
    missing = required - set(section)
    if missing:
        raise ConfigError(f"missing keys in {where}: {sorted(missing)}")
    return section


def parse_value(conv, value, where: str):
    """conv(value), with a failed conversion raised as ConfigError; int
    refuses a number with a fractional part instead of truncating it, int
    and float refuse a boolean, and list anything but a JSON array."""
    if conv is list and not isinstance(value, list):
        raise ConfigError(f"bad value for {where}: {value!r} is not a JSON array")
    if conv in (int, float) and isinstance(value, bool):
        raise ConfigError(f"bad value for {where}: {value!r} is a boolean, not a number")
    if conv is int and isinstance(value, float) and not value.is_integer():
        raise ConfigError(f"bad value for {where}: {value!r} is not an integer")
    try:
        return conv(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"bad value for {where}: {value!r}") from exc
