"""Exception types shared across the package."""


class AtomCavityError(Exception):
    """Base class for all package-specific errors."""


class ShapeError(AtomCavityError, ValueError):
    """Operands have incompatible or non-square shapes."""


class DimensionLimitError(AtomCavityError, ValueError):
    """A requested dense object would exceed the configured size cap."""


class UnsupportedRegimeError(AtomCavityError, ValueError):
    """Parameters lie outside the regime a model builder supports."""


class StateValidityError(AtomCavityError, ValueError):
    """A matrix fails the density-matrix invariants beyond tolerance."""


class KernelAmbiguityError(AtomCavityError, ValueError):
    """The steady state is not fixed by what was given: a model with stated
    conserved quantities was asked for it without an initial state, or its
    kernel is larger than its conserved quantities account for."""


class NumericalAccuracyError(AtomCavityError, RuntimeError):
    """A numerical routine finished but violated its accuracy contract."""


class StiffnessError(NumericalAccuracyError):
    """BDF integration failed; the spectral-decomposition path may help."""


class FitWindowError(AtomCavityError, RuntimeError):
    """Trajectory has not decayed enough to fit a relaxation time."""


class TruncationLimitError(AtomCavityError, RuntimeError):
    """Fock-truncation sweep exceeded the hard cutoff cap without converging."""


class SpectrumDiagnosticError(AtomCavityError, RuntimeError):
    """Spectrum does not carry enough structure for the requested diagnostic."""
