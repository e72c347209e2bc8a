"""Exception and warning types shared across the toolkit.

The CLI maps these onto exit codes: ConfigError -> 2; any other CitemapError,
ValueError or OSError -> 3. A StageError takes the code of the error it wraps.
The CLI prints each CitemapWarning as one ``warning: <message>`` line on
stderr.
"""


class CitemapError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CitemapError):
    """Invalid parameters, word-list files, or pipeline configuration."""


class ParseError(CitemapError):
    """A local input file could not be parsed."""


class ConsistencyError(CitemapError):
    """Structures passed together do not describe the same data."""


class StageError(CitemapError):
    """A pipeline stage failed; wraps the causing error."""

    def __init__(self, stage: str, cause: BaseException):
        super().__init__(f"stage '{stage}' failed: {cause}")
        self.stage = stage
        self.cause = cause


class CitemapWarning(UserWarning):
    """Non-fatal corpus data issue: a duplicate document id or context, or a dangling context link."""

