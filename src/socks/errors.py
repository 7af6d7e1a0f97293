"""Exception hierarchy shared by all subsystems.

Every configuration-related error carries a slash-separated key path and the
origin file it came from, so the user can jump straight to the offending line.
"""

from __future__ import annotations


class SocksError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 1

    def __init__(self, message: str, *, key_path: str | None = None,
                 origin: str | None = None):
        self.key_path = key_path
        self.origin = origin
        super().__init__(message)

    def __str__(self) -> str:
        msg = super().__str__()
        parts = []
        if self.key_path:
            parts.append(f"at '{self.key_path}'")
        if self.origin:
            parts.append(f"in {self.origin}")
        if parts:
            return f"{msg} ({', '.join(parts)})"
        return msg


class ConfigError(SocksError):
    """Malformed, unresolvable, or invalid project configuration."""


class ValidationError(ConfigError):
    """Schema validation failure for the general or a block section."""


class GraphError(SocksError):
    """Dependency graph construction or lookup failure."""


class CycleError(GraphError):
    """A cycle was found; ``chain`` lists the participating elements."""

    def __init__(self, message: str, chain: list[str], **kw):
        super().__init__(message, **kw)
        self.chain = chain


class PackageError(SocksError):
    """Block package creation, validation, or import failure."""


class ContentRuleViolation(PackageError):
    """A block package misses required entries; ``violations`` lists the
    unmatched required globs."""

    def __init__(self, message: str, violations: list[str], **kw):
        super().__init__(message, **kw)
        self.violations = violations


class BuilderError(SocksError):
    """A builder could not carry out the requested command."""

    exit_code = 2


class ProcessError(BuilderError):
    """An external process exited nonzero; captured streams attached."""

    def __init__(self, message: str, result=None, **kw):
        super().__init__(message, **kw)
        self.result = result

    def __str__(self) -> str:
        base = super().__str__()
        if self.result is not None and (self.result.stdout or self.result.stderr):
            return (f"{base}\n--- stdout ---\n{self.result.stdout}"
                    f"\n--- stderr ---\n{self.result.stderr}")
        return base


class EnvironmentError_(BuilderError):
    """The requested build environment is unavailable or misconfigured."""


class SourceError(BuilderError):
    """Git source sync, patch, or snippet handling failure."""


class UsageError(SocksError):
    """Bad command line; message is the usage hint."""


class IncrementalStateError(SocksError):
    """Corrupt build record, or an unreadable source entry."""
