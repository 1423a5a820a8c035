"""Exception types shared across the package."""


class QesError(Exception):
    """Base class for all package-specific errors."""


class ParameterError(QesError, ValueError):
    """A family or config parameter is out of its admissible range."""


class GeneratorAdmissibilityError(QesError, ValueError):
    """The supplied generator cannot seed a construction (zeros/sign structure)."""


class InadmissibleModelError(QesError, ValueError):
    """A derived superpotential violates the normalizability sign condition."""


class PhiNotMonotoneError(QesError, ValueError):
    """The seed function for the phi route is not strictly increasing."""


class BrokenSusyError(QesError, ValueError):
    """The candidate zero mode exp(-int W) is not normalizable."""


class NonFiniteIntegrandError(QesError, ValueError):
    """An integrand returned inf or nan at a quadrature abscissa."""


class ExpressionError(QesError, ValueError):
    """An inline expression failed to parse or used a disallowed construct."""


class ConfigError(QesError, ValueError):
    """A CLI config file or flag combination is invalid."""


class QueryRangeError(QesError, ValueError):
    """A query point or grid reaches where the model cannot be evaluated or tabulated."""
