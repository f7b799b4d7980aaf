"""Exception types shared across the package.

Every failure mode that callers are expected to handle gets its own class so
that the CLI can map them to stable exit codes.
"""


class BetadimError(Exception):
    """Base class for all package-specific errors."""


class InvalidBeta(BetadimError):
    """The base specification does not denote a real number > 1."""


class PrecisionExhausted(BetadimError):
    """A certified decision could not be made within the precision budget.

    ``site`` names the decision, ``bits`` the highest precision tried and
    ``width_log2`` an e with enclosure width below 2**e; each is None where
    the raiser does not know it.
    """

    def __init__(self, message: str, site: str | None = None, bits: int | None = None,
                 width_log2: int | None = None):
        super().__init__(message)
        self.site = site
        self.bits = bits
        self.width_log2 = width_log2


class CapExceeded(BetadimError):
    """An enumeration or materialization would exceed a configured cap."""


class NotAdmissible(BetadimError):
    """A digit word violates the lexicographic admissibility criterion."""


class PreconditionViolated(BetadimError):
    """A documented operation precondition does not hold."""


class InvariantFailure(BetadimError):
    """An internal invariant that should be unconditionally true failed."""

