"""Exception hierarchy.

``ParseError`` covers malformed inputs (files, dicts, dimension mismatches in
user data); ``NumericalError`` covers failures of the numerics themselves.
The CLI maps these onto distinct exit codes.
"""


class WassnetError(Exception):
    """Base class for all package errors."""


class ParseError(WassnetError):
    """Malformed or inconsistent user input."""


class NumericalError(WassnetError):
    """A numerical routine failed or detected an invalid matrix.

    The offending array, when available, is attached as ``.payload``.
    """

    def __init__(self, message, payload=None):
        super().__init__(message)
        self.payload = payload


class FixedPointError(NumericalError):
    """The quantizer fixed point did not converge; residual attached."""

    def __init__(self, message, residual):
        super().__init__(message, payload=residual)
        self.residual = residual
