"""Exception hierarchy shared across the package, and the base of its
immutable value classes.

Each exception class carries the exit code the CLI returns for it: bad
input -> 1, internal consistency failure -> 2, enumeration or sampling budget
exceeded or a result too long to print -> 3.
"""


class Value:
    """Base of the package's immutable value classes: what a frozen dataclass
    gives, without importing dataclasses, whose import loads inspect, which
    the closed-form commands otherwise never load. A subclass lists its fields
    in __slots__ and sets them in __init__ through _init. An instance equals
    and hashes as the tuple of its fields, prints as Name(field=value, ...),
    and refuses assignment."""

    __slots__ = ()

    def _init(self, *values) -> None:  # in __slots__ order
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    """An internal cross-check failed (e.g. a verify check, or an A5 kernel
    that is not a subgroup), or a verify worker could not start."""

    exit_code = 2


class BudgetExceededError(MomentforgeError):
    """A brute-force enumeration or a sampler run would exceed its budget, or a
    result would be too long to print."""

    exit_code = 3
