"""Exception hierarchy for diracbvp: one class per kind of fault that a
caller can tell apart.  The CLI prints every DiracBVPError as one
`error:` line and exits 1."""


class DiracBVPError(Exception):
    """Base class for all package errors."""


class ParameterError(DiracBVPError):
    """An argument or a model that the operation cannot take: a parameter
    out of range, a bad grid, fields that do not match, a singular shift,
    a non-invertible operator, a degenerate pairing, p = 2 scaling."""


class InvalidFieldError(DiracBVPError):
    """Field contains non-finite values or has an inconsistent shape."""


class NumericalError(DiracBVPError):
    """A numerical routine failed its accuracy contract or left the floats."""


class ConfigParseError(DiracBVPError):
    """Run configuration file could not be parsed.

    Carries the offending key path when available.
    """

    def __init__(self, message, key=None):
        if key is not None:
            message = "%s: %s" % (key, message)
        super().__init__(message)
        self.key = key
