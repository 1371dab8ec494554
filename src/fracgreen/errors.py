"""Exception taxonomy shared across the package."""


class FracgreenError(Exception):
    """Base of every error the library raises on purpose."""


class DomainError(FracgreenError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class DegenerateInputError(FracgreenError, ValueError):
    """Input degenerate for the requested operation (e.g. coincident points)."""


class SingularityError(FracgreenError, ValueError):
    """Evaluation point coincides with a genuine singularity of the field."""


class DivergenceError(FracgreenError, ValueError):
    """The requested integral does not converge."""


class ToleranceError(FracgreenError, RuntimeError):
    """Refinement budget exhausted before reaching the requested tolerance.

    `row`: the unresolved integral of a many-row rule, None if not known.
    """

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message)
        self.row = row


class ConvergenceError(FracgreenError, RuntimeError):
    """An iterative solve failed to reach its tolerance within budget."""
