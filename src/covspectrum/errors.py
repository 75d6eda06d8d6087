"""Exception hierarchy shared by all covspectrum modules.

The CLI maps these onto exit codes: ValidationError -> 1,
ResourceError/ConvergenceError and a failed allocation (MemoryError) -> 2,
OSError -> 3.
"""


class CovspectrumError(Exception):
    """Base class for all library errors."""


class ValidationError(CovspectrumError):
    """Invalid parameters, shapes, or malformed inputs."""


class DegenerateInputError(ValidationError):
    """Input is structurally valid but degenerate (e.g. zero variance)."""


class ResourceError(CovspectrumError):
    """A guarded computation exceeded its enumeration or overflow budget."""


class ConvergenceError(CovspectrumError):
    """An iterative solver failed to converge within its budget.

    spectral.lambda_max_matfree's one budget is a single Lanczos pass of at
    most MAX_BASIS steps; solves at p = 2001-10^4 took 26-144 operator
    applications.  Carries the best iterate, the applications spent and
    the last true residual so callers can inspect partial progress.
    """

    def __init__(self, message, best_value=None, iterations=None, residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.iterations = iterations
        self.residual = residual
