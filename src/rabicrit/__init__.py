"""Critical dynamics of the quantum Rabi model probed by a dispersively
coupled auxiliary atom: exact, effective, variational, and closed-form
ground states, photon statistics, and the Loschmidt echo."""

__version__ = "0.1.0"

from .errors import ConvergenceError, PhaseDomainError, RabicritError
from .hamiltonians import Phase, RabiParams

__all__ = [
    "ConvergenceError",
    "Phase",
    "PhaseDomainError",
    "RabiParams",
    "RabicritError",
    "__version__",
]
