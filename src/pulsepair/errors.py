"""Exception hierarchy shared across the package."""


class PulsePairError(Exception):
    """Base class for every error raised by this package."""


class NonHermitianInput(PulsePairError):
    """A matrix expected to be Hermitian failed the symmetry check."""


class TraceNotOne(PulsePairError):
    """A density matrix trace differs from 1 beyond tolerance."""


class OutOfWindow(PulsePairError):
    """Evaluation time lies outside the pulse validity window."""


class ResonanceRequired(PulsePairError):
    """Exponential drives are only defined on resonance (delta = 0)."""


class NonDiagonalInput(PulsePairError):
    """Initial correlation data must be diagonal with zero Bloch vectors."""


class ConvergenceFailure(PulsePairError, ArithmeticError):
    """An iterative solver stopped before meeting its tolerance."""


class StepTooLarge(PulsePairError):
    """Integrator step is too coarse for the requested interval."""


class UnphysicalState(PulsePairError):
    """State parameters yield a density matrix with a negative eigenvalue."""


class InvalidConfig(PulsePairError):
    """Sweep configuration violates a structural constraint."""


class UnknownPreset(PulsePairError):
    """Requested preset name is not defined."""
