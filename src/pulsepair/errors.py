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


class ConvergenceFailure(PulsePairError, ArithmeticError):
    """An iterative solver stopped before meeting its tolerance."""


class AngleOverflow(PulsePairError, ArithmeticError):
    """A pulse's rotation angle is too large for a float."""


class StepTooLarge(PulsePairError):
    """Integrator step is too coarse for the requested interval."""


class UnphysicalState(PulsePairError):
    """State parameters yield a density matrix with a negative eigenvalue."""


class InvalidConfig(PulsePairError):
    """A sweep configuration or validation setting violates a constraint."""


class UnknownPreset(PulsePairError):
    """Requested preset name is not defined."""


class ValidationFailed(PulsePairError):
    """A validate check's error exceeded its tolerance."""
