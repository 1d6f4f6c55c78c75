"""Exception and warning types shared across the package."""


class WvlabError(Exception):
    """Base class for all package-specific errors."""


class OrthogonalSelection(WvlabError):
    """Pre/post overlap below the orthogonality threshold: the weak value is undefined."""


class DegenerateDenominator(WvlabError):
    """A closed-form denominator vanished; the quantity is undefined at these inputs."""


class NullVector(WvlabError):
    """An operator annihilated the state."""


class InsufficientSpan(WvlabError):
    """Grid does not cover enough of the distribution's support."""


class TruncationTooTight(WvlabError):
    """Fock-space truncation leaves more tail probability mass than allowed."""


class IncompatibleMeter(WvlabError):
    """The meter's type has no coupling generator, or none the operation reads out."""


class EmptyPostselection(WvlabError):
    """Post-selection succeeded with (numerically) zero probability."""


class InvalidCovariance(WvlabError):
    """Covariance matrix is not square, not finite or not exactly symmetric."""


class SingularCovariance(WvlabError):
    """Covariance matrix could not be factorized even with jitter."""


class UnsupportedCombination(WvlabError):
    """No closed form exists for this scheme/noise combination."""


class LadderTooLong(WvlabError):
    """Detector readout ladder has more levels than can be held in memory."""


class BoundaryMaximum(WvlabError):
    """Likelihood maximum sits on the search-grid edge; widen the grid."""


class ValidityViolation(WvlabError):
    """Scheme validity ordering (e.g. overlap << g/sigma << 1) does not hold."""


class UnsupportedDimension(WvlabError):
    """Operation restricted to qubit systems was called with d > 2."""


class ConfigError(WvlabError):
    """Scenario configuration is malformed."""


class RegimeViolationWarning(UserWarning):
    """A scheme was evaluated outside its stated approximation regime."""
