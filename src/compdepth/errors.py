"""Exception taxonomy shared across the package.

Parsers, the ground-plane and horizon code, fusion, metrics, and the lab
raise these instead of bare ValueError so callers can tell data problems
from numerical degeneracies. The per-object geometry (projection, ground
elevation and the depth kernels) raises none: it returns NaN where the
geometry is undefined, and the CLI counts those entries as failed
branches or elevations.
"""

from __future__ import annotations


class CompdepthError(Exception):
    """Base class for every error raised by this package."""


# ---------------------------------------------------------------------------
# ground plane / horizon
# ---------------------------------------------------------------------------

class DegeneratePlane(CompdepthError):
    """Plane has no horizon in the slope-intercept parameterization (|b| ~ 0)."""


class InsufficientSupport(CompdepthError):
    """Too few usable columns to fit a horizon line."""


class EmptyInput(CompdepthError):
    """An operation that needs at least one sample received none."""


# ---------------------------------------------------------------------------
# parsing / serialization
# ---------------------------------------------------------------------------

class MissingKey(CompdepthError):
    """Required key is absent from a calibration file."""


class MalformedMatrix(CompdepthError):
    """Calibration matrix row has the wrong arity or non-numeric entries."""


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


# ---------------------------------------------------------------------------
# fusion
# ---------------------------------------------------------------------------

class EmptyEnsemble(CompdepthError):
    """Fusion needs at least one branch."""


class NonPositiveSigma(CompdepthError):
    """Branch uncertainty must be strictly positive."""


class AllBranchesInvalid(CompdepthError):
    """Every branch of an ensemble was masked out."""


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

class LengthMismatch(CompdepthError):
    """Paired arrays differ in length."""


class ZeroMAE(CompdepthError):
    """Complementarity score is undefined when the MAE is zero."""


class NonMonotoneEdges(CompdepthError):
    """Bin edges must be strictly increasing."""


# ---------------------------------------------------------------------------
# complementarity lab
# ---------------------------------------------------------------------------

class UnknownBranch(CompdepthError):
    """Named branch is missing from at least one ensemble."""


class KOutOfRange(CompdepthError):
    """Requested flip count is outside 0..n_branches."""
