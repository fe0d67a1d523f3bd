"""Exception types shared across the package.

Everything raised on purpose derives from TorusLocError, so the CLI can map
any domain failure to a single exit code.
"""


class TorusLocError(Exception):
    """Base class for all domain errors."""


class ZeroConstantTerm(TorusLocError):
    """Series inversion requested for a polynomial with p(0) = 0."""


class DimensionMismatch(TorusLocError):
    """Vector or basis length does not match the ambient variable count."""


class NotUnimodular(TorusLocError):
    """A flag whose stage vectors do not form a basis of the integer lattice."""


class EmptyStage(TorusLocError):
    """A stage map was applied to a space with no lines."""


class UnknownFixedPoint(TorusLocError):
    """A plan term references a fixed point the model does not contain."""


class NoRootData(TorusLocError):
    """Weyl correction requested on a model without roots or Weyl order."""


class NotRegular(TorusLocError):
    """A plan base point sits on a wall."""


class Unsupported(TorusLocError):
    """A request outside the implemented cases."""


class UnknownGenerator(TorusLocError):
    """Class generator name not defined for the given model."""


class IndexOutOfRange(TorusLocError):
    """Generator index outside the model's factor range."""


class ModelFormatError(TorusLocError):
    """A model file or fixed point violates the documented schema or an invariant."""


class ModelTooLarge(TorusLocError):
    """A built-in family size whose fixed-point count exceeds the limit."""


class PlanFormatError(TorusLocError):
    """A plan file or oriented flag violates the documented schema."""


class ClassSyntaxError(TorusLocError):
    """Class expression syntax error, carrying a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
