"""Exception hierarchy.

Two branches matter to callers: ValidationError (bad inputs/config, CLI exit
code 2) and NumericalError (a computation that cannot be completed or
certified, CLI exit code 3).
"""


class ZetaLabError(Exception):
    """Base class for all package errors."""


class ValidationError(ZetaLabError):
    """Invalid argument, configuration key, or file format."""


class NumericalError(ZetaLabError):
    """A numerical procedure failed or cannot certify its contract."""


class NonFiniteValueError(NumericalError):
    """A NaN or infinity tried to escape an arithmetic operation."""


class PoleError(NumericalError):
    """Evaluation requested at a pole of the function."""


class PrecisionUnreachableError(NumericalError):
    """The adaptive evaluation schedule cannot certify the digit budget."""


class ChiDegenerateError(NumericalError):
    """The functional-equation prefactor hits a pole/zero degeneracy."""


class NearZeroRowError(NumericalError):
    """A grid row falls too close to a zeta zero for a non-degenerate system."""

    def __init__(self, row: int, modulus: float, threshold: float):
        self.row = row
        self.modulus = modulus
        self.threshold = threshold
        super().__init__(
            f"|zeta(s_{row})| = {modulus:.3e} is below the row threshold "
            f"{threshold:.3e}; perturb the grid away from the zeta zero"
        )


class SingularMatrixError(NumericalError):
    """Pivot modulus below the singularity threshold during elimination."""


class ResidualTooLargeError(NumericalError):
    """Solve residual still above contract after the doubled-precision retry."""


class NoCrossingError(NumericalError):
    """Coefficient profile never passes through one half."""


class NegativeRadicandError(NumericalError):
    """Scale-factor formula radicand is not positive for this configuration."""


class RealAxisError(NumericalError):
    """Generalized coefficients are undefined for Im s = 0."""


class NonPositiveScaleError(ValidationError):
    """Sigmoid scale factor must be positive."""


class NoInteriorMinimumError(NumericalError):
    """Calibration error is monotone across the bracket; widen the bracket."""


class DegenerateFitError(NumericalError):
    """Least-squares fit has no spread in the abscissa."""


class NonPositiveValueError(NumericalError):
    """Logarithmic fit fed a non-positive sample."""

    def __init__(self, sample):
        self.sample = sample
        super().__init__(f"log-domain fit requires positive values, got {sample!r}")
