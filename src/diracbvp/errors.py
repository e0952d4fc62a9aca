"""Exception hierarchy for diracbvp."""


class DiracBVPError(Exception):
    """Base class for all package errors."""


class InvalidFieldError(DiracBVPError):
    """Field contains non-finite values or has an inconsistent shape."""


class IncompatibleFieldsError(DiracBVPError):
    """Two fields live on different grids or have different ranks."""


class GridError(DiracBVPError):
    """Grid parameters out of range (too few points, nonpositive length)."""


class ParameterError(DiracBVPError):
    """Scalar parameter outside its admissible range."""


class ConfigurationError(DiracBVPError):
    """Inconsistent model setup (operator/boundary mismatch etc.)."""


class NumericalError(DiracBVPError):
    """A numerical routine failed to meet its accuracy contract."""


class NearSingularError(DiracBVPError):
    """Shift parameter too close to an eigenvalue of the operator."""


class SingularPowerError(DiracBVPError):
    """Fractional power of a non-invertible operator requested."""


class UndefinedSplittingError(DiracBVPError):
    """Positive/negative spectral splitting with a zero mode present."""


class DegeneratePairingError(DiracBVPError):
    """Vanishing denominator in the variational functional."""


class DivergenceError(DiracBVPError):
    """Iterate overflowed or became non-finite."""


class UndefinedScalingError(DiracBVPError):
    """Problem rescaling requested at p = 2 where it is undefined."""


class ConfigParseError(DiracBVPError):
    """Run configuration file could not be parsed.

    Carries the offending key path when available.
    """

    def __init__(self, message, key=None):
        if key is not None:
            message = "%s: %s" % (key, message)
        super().__init__(message)
        self.key = key
