"""Exception hierarchy shared across the package."""


class FFDynError(Exception):
    """Base class for all package errors."""


class FieldError(FFDynError):
    """Invalid field parameters or an illegal element operation."""


class PrecisionError(FFDynError):
    """A quantity is indeterminate at the available coefficient window."""


class LatticeError(FFDynError):
    """Malformed lattice input (non-square, dependent or zero columns)."""


class CertificationError(FFDynError):
    """A computed value cannot be certified at the available precision.

    Carries ``needed_precision`` when a sufficient window is known.
    """

    def __init__(self, message, needed_precision=None):
        super().__init__(message)
        self.needed_precision = needed_precision


class EnumerationCapError(FFDynError):
    """A bounded search exceeded its configured work cap."""


class BracketError(FFDynError):
    """A root bracket for a scalar solve could not be established."""


class ConfigError(FFDynError):
    """Invalid experiment configuration; ``violations`` lists every problem."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))

    def __reduce__(self):
        # args holds the joined message; rebuild from the list instead
        return type(self), (self.violations,), self.__dict__
