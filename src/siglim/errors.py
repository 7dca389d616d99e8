"""Exception types shared across the package.

Every exception carries a short machine-readable name (its class name) plus a
human diagnostic; the CLI maps any of these to exit code 2.
"""


class SiglimError(Exception):
    """Base class for all validation and precondition failures."""


class DuplicateTransitionTime(SiglimError):
    """Two transitions were given at the same time."""


class OverlappingIntervals(SiglimError):
    """Interval list for a characteristic function is not disjoint."""


class InvalidWindow(SiglimError):
    """Window parameters must satisfy 0 <= m <= d."""


class ArityMismatch(SiglimError):
    """Number of signals or arguments does not match the declared arity."""


class BlockArityMismatch(SiglimError):
    """Block split of a signal tuple does not match the component arities."""


class PreconditionViolated(SiglimError):
    """A stated precondition of an operation does not hold."""


class HypothesisViolated(SiglimError):
    """Composed lower bound is not below the composed upper bound."""


class MonotonyViolated(SiglimError):
    """Closed-form composition requires monotone bound functions."""


class DistributivityUnverified(SiglimError):
    """An outer bound does not commute with a positive-width window; composition refused."""


class KindMismatch(SiglimError):
    """No closed form composes these model kinds or differing inner parameters."""


class InexactComposition(SiglimError):
    """The summed closed form can admit outputs that the chain does not produce."""


class InvalidBlc(SiglimError):
    """Bounded-condition parameters admit no consistent envelope pair."""


class NegativeDelay(SiglimError):
    """Delays and dwell times must be non-negative."""


class EmptyMeet(SiglimError):
    """No witness of the intersection was found within the search budget."""


class EmptyBailc(SiglimError):
    """Bounded-plus-inertial condition is empty for some input: its closed
    criterion fails, or the dwell sweep proves an input admits no output."""


class UnknownTheorem(SiglimError):
    """Requested check id is not in the registry."""


class InvalidDocument(SiglimError):
    """Signal or model document does not match the file format."""
