"""The package's one exception type.

Every input error the package raises is a ValueError: bad text, bad
arrays, out-of-range settings and numerical degeneracies alike, so one
`except ValueError` sees them all. CompdepthError, itself a ValueError,
marks input-file content that is malformed or does not join: a label
line, prediction record or calibration text (focal lengths <= 0 too)
that breaks its format, and prediction keys without a row in a listed
label file. Its text names the place, as in
`line 2: field 'branches[0].sigma': ...`. Every other error, a bad PGM
among them, is a plain ValueError. Undefined geometry is no error:
projection, ground elevation, the depth kernels, a plane fit and the
plane/horizon conversions return NaN, a frame without a plane included.
The CLI counts those as failed branches or elevations, or plane fallbacks.
"""


class CompdepthError(ValueError):
    """Input-file content that is malformed or does not join."""
