"""Exception types shared across the package."""


class DbarConeError(Exception):
    """Base class for all library errors."""


class ZeroPolynomial(DbarConeError):
    pass


class NonHomogeneous(DbarConeError):
    """Polynomial monomials disagree on the weighted degree."""


class NotOnVariety(DbarConeError):
    pass


class NoConvergence(DbarConeError):
    """An iteration or refinement budget ran out before the tolerance was met."""


class SingularAnchor(DbarConeError):
    pass


class PivotTooSmall(DbarConeError):
    """No coordinate of the chart anchor has modulus >= 1."""


class ImplicitFunctionFailure(DbarConeError):
    pass


class NewtonDivergence(DbarConeError):
    pass


class NotInChart(DbarConeError):
    pass


class NotACone(DbarConeError):
    """Operation requires unit weights (beta = (1,...,1))."""


class InsufficientSamples(DbarConeError):
    pass


class ProjectionFailure(DbarConeError):
    pass


class StepTooSmall(DbarConeError):
    """Finite-difference noise dominates the derivative estimate."""


class ParseError(DbarConeError):
    pass


class ValidationError(DbarConeError):
    pass
