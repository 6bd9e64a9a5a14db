"""Critical dynamics of the quantum Rabi model probed by a dispersively
coupled auxiliary atom: exact, effective, variational, and closed-form
ground states, photon statistics, and the Loschmidt echo."""

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DimensionMismatchError,
    PhaseDomainError,
    RabicritError,
    TruncationError,
)
from .hamiltonians import DisplacedFrame, ProbeParams, RabiParams
from .hilbert import FockCutoff

__all__ = [
    "ConvergenceError",
    "DimensionMismatchError",
    "DisplacedFrame",
    "FockCutoff",
    "PhaseDomainError",
    "ProbeParams",
    "RabiParams",
    "RabicritError",
    "TruncationError",
    "__version__",
]
