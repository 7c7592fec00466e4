"""The library's numerical failures; the CLI reports each with exit code 3.

Invalid input raises ``ValueError`` instead.
"""


class NumericalError(RuntimeError):
    """A computation could not produce a result it can vouch for."""


class BracketingError(NumericalError):
    """A window or range does not bracket the requested minimum, root or
    bifurcation."""


class SolverError(NumericalError):
    """The eigensolver did not converge or missed its residual bound."""


class IntegrationError(NumericalError):
    """Trajectory integration failed or violated the energy-drift bound."""
