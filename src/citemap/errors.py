"""Exception and warning types shared across the toolkit, and the check of settings files.

The CLI maps these onto exit codes: ConfigError -> 2; any other CitemapError,
ValueError or OSError -> 3. A StageError takes the code of the error it wraps.
ProviderError and its subclasses are raised only by the providers module,
which no subcommand uses.
"""

from types import NoneType


class CitemapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CitemapError):
    """Invalid parameters, word-list files, or pipeline configuration."""


class ParseError(CitemapError):
    """A local input file could not be parsed."""


class ConsistencyError(CitemapError):
    """Structures passed together do not describe the same data."""


class ProviderError(CitemapError):
    """A remote catalog could not be used."""


class TransportError(ProviderError):
    """Network-level failure; safe to retry."""


class ResponseError(ProviderError):
    """The provider answered, but the payload was unusable."""


class StageError(CitemapError):
    """A pipeline stage failed; wraps the causing error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class CitemapWarning(UserWarning):
    """Non-fatal data quality issue (duplicates, dangling links, isolates)."""


def check_settings(cls: type, mapping: dict, what: str) -> None:
    """ConfigError unless each key of ``mapping`` is a field of dataclass ``cls`` and its value fits the annotation."""
    unknown = set(mapping) - set(cls.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown {what}: {sorted(unknown)}")
    for name, value in mapping.items():
        kind = cls.__dataclass_fields__[name].type  # "int", "float", "str" or "str | None"
        accepted = {"int": int, "float": (int, float), "str": str, "str | None": (str, NoneType)}[kind]
        if isinstance(value, bool) or not isinstance(value, accepted):  # bool subclasses int
            raise ConfigError(f"{name} must be {kind}, got {value!r}")
