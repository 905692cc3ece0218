"""Exception types shared across the toolkit.

Every error raised by fastpose derives from FastposeError, so callers can
catch the whole family at the CLI boundary and map it to a data-error exit.
"""


class FastposeError(Exception):
    """Base class for all fastpose errors."""


# geometry / projection
class NonPositiveDepth(FastposeError):
    """A point with camera-space z <= 0 was projected."""


class EmptyModel(FastposeError):
    """An operation required at least one vertex."""


class DegenerateInput(FastposeError):
    """A normalization would divide by a vanishing norm."""


class InvalidRotation(FastposeError):
    """A 3x3 matrix is not orthonormal with determinant +1 within tolerance."""


# network engine
class ShapeMismatch(FastposeError):
    """Tensor or gradient shapes are not congruent with the graph."""


class InvalidConfig(FastposeError):
    """A builder or training configuration violates its preconditions."""


# pruning
class TooAggressive(FastposeError):
    """A prune plan would leave a layer with fewer channels than one group."""


class InconsistentPlan(FastposeError):
    """A prune plan does not match the graph it is applied to."""


# distillation / metrics
class LengthMismatch(FastposeError):
    """Paired arrays disagree: a student and teacher output differ in shape,
    or an object's average-recall inputs (a VSD error vector and the tau
    grid, the per-metric sample counts) differ in length."""


# metrics / aggregation
class EmptyInput(FastposeError):
    """A reduction over an empty collection was requested."""


class MissingDiameter(FastposeError):
    """An object id in the samples has no diameter entry."""


# file ingestion
class MalformedLine(FastposeError):
    """A CSV line could not be parsed; carries the 1-based line number."""

    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no
        self.reason = reason


class UnsupportedFormat(FastposeError):
    """The file uses a feature outside the supported subset."""


class MalformedHeader(FastposeError):
    """A structured file header is syntactically invalid."""


class IndexOutOfRange(FastposeError):
    """A face or channel index points outside its valid range."""


class SchemaViolation(FastposeError):
    """A JSON document violates the documented schema; carries the JSON path."""

    def __init__(self, path: str, reason: str):
        super().__init__(f"{path}: {reason}")
        self.path = path
        self.reason = reason
