"""Exception hierarchy shared across the package.

Each class carries the exit code the CLI returns for it: bad input -> 1,
internal consistency failure -> 2, enumeration or sampling budget exceeded or
a result too long to print -> 3.
"""


class MomentforgeError(Exception):
    exit_code = 1


class InputError(MomentforgeError, ValueError):
    """Malformed or out-of-contract input (bad flags, bad JSON, bad indices)."""


class InfeasibleMomentsError(InputError):
    """The supplied values cannot be the moments of any nonnegative measure.

    Raised when an odd-truncation lower bound exceeds an even-truncation
    upper bound; for genuine moment data the two families never cross.
    """


class ConsistencyError(MomentforgeError):
    """An internal cross-check failed (e.g. a non-integer extension-class count)."""

    exit_code = 2


class BudgetExceededError(MomentforgeError):
    """A brute-force enumeration or a sampler run would exceed its budget, or a
    result would be too long to print."""

    exit_code = 3
