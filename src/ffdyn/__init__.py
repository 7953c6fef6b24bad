"""Lattice dynamics and Diophantine approximation over F_q((1/X)).

Subpackages by theme: ``field`` (coefficient arithmetic), ``lattice``
(weak Popov reduction and the depth statistic), ``flow`` (diagonal flows,
psi/rate transforms, tail tables, Borel-Cantelli experiments), ``dioph``
(approximation censuses and the dynamical correspondence), ``weyl``
(dominant cocharacter counts and cusp volumes), ``tree`` (quotient-ray
geometry and log laws), ``spherical`` (the spherical average Xi and its
decay profile), ``cli`` (experiment driver).
"""

__version__ = "0.1.0"

from .errors import (
    BracketError,
    CertificationError,
    ConfigError,
    EnumerationCapError,
    FFDynError,
    FieldError,
    PrecisionError,
)

__all__ = [
    "BracketError",
    "CertificationError",
    "ConfigError",
    "EnumerationCapError",
    "FFDynError",
    "FieldError",
    "PrecisionError",
    "__version__",
]
