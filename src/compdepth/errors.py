"""The package's exception types.

Every input error the package raises is a ValueError: bad text, bad
arrays, out-of-range settings and numerical degeneracies alike, so one
`except ValueError` sees them all. CompdepthError, itself a ValueError,
is the base of the three subclasses below, which exist because they
carry fields (MalformedLine, SchemaError, JoinError); every other error
is a plain ValueError. Undefined geometry is no error: projection, ground
elevation, the depth kernels and a plane's horizon return NaN, and a plane
fit or a horizon's plane returns None. The CLI counts those as failed
branches or elevations, or as plane fallbacks.
"""

from __future__ import annotations


class CompdepthError(ValueError):
    """Base class of the package's own ValueError subclasses."""


class MalformedLine(CompdepthError):
    """A label line failed to parse. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class SchemaError(CompdepthError):
    """A prediction record violates the JSONL schema.

    Carries the 1-based line number and the offending field path.
    """

    def __init__(self, line_no: int, field: str, message: str):
        super().__init__(f"line {line_no}: field '{field}': {message}")
        self.line_no = line_no
        self.field = field


class JoinError(CompdepthError):
    """Predictions reference (frame, index) pairs absent from the labels."""

    def __init__(self, unmatched, message: str = "unmatched prediction keys"):
        keys = list(unmatched)
        shown = ", ".join(f"({f}, {i})" for f, i in keys[:5])
        more = "" if len(keys) <= 5 else f" and {len(keys) - 5} more"
        super().__init__(f"{message}: {shown}{more}")
        self.unmatched = keys
