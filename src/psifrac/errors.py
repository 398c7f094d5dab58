"""Exception hierarchy shared by all modules."""


class PsifracError(Exception):
    """Base class for all library errors."""


class DomainError(PsifracError):
    """Invalid argument, configuration or kernel-function domain."""


class PoleError(DomainError):
    """Gamma evaluated at a non-positive integer."""


class JetOrderError(PsifracError):
    """A derivative beyond the declared jet order was requested."""


class NumericsError(PsifracError):
    """A numerical evaluation failed (degenerate interval, psi inversion that
    does not converge, non-finite result)."""
