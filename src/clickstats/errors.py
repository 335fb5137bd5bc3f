"""Exception hierarchy shared by all clickstats modules.

Two families matter for exit-code mapping in the CLI: input problems
(ParseError, ValidationError) and domain failures raised during an
otherwise well-formed computation (DomainError subclasses).
"""


class ClickStatsError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(ClickStatsError):
    """Input text is not well-formed (bad JSON, bad table layout)."""


class ValidationError(ClickStatsError):
    """Well-formed input violates a schema or range constraint.

    The message carries the offending field path, e.g.
    ``state.components[1].weight``.
    """


class DomainError(ClickStatsError):
    """Base class for failures of a valid computation on valid input."""


class TruncationOverflow(DomainError):
    """A photon law needs more than the cap of 4096 photons, a Fock number lies
    beyond the float range, or the squeezed quadrature needs more than its cap
    of 2^17 nodes."""


class NumericalInstability(DomainError):
    """A click law failed ClickDistribution's checks: an entry that is not
    finite or lies below -1e-12, or a sum off 1 by more than 1e-9. Every route
    sums nonnegative terms, so none is known to produce such a law."""


class DegenerateMean(DomainError):
    """Mean count sits at a boundary where the statistic is undefined."""


class InvalidSample(DomainError):
    """A click record lies outside the valid range [0, N]."""


class InsufficientData(DomainError):
    """Too few samples or replicates for the requested estimate."""


class AllResamplesDegenerate(DomainError):
    """Every bootstrap resample had a degenerate mean; no interval exists."""
