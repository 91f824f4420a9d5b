"""Exception types shared across the package."""


class MinishiftError(Exception):
    """Base class for all package errors."""


class ParseError(MinishiftError):
    """Malformed textual input; not a ``ValueError``, so argparse keeps its message."""


class InputError(MinishiftError, ValueError):
    """A value the library refuses: a stray letter, a non-factor, a bad length or modulus."""


class BudgetExceeded(MinishiftError):
    """A configured size or iteration budget was exhausted."""


DEFAULT_MONOID_BUDGET = 20000  # elements a monoid closure may reach


class NotPrimitive(MinishiftError):
    """Operation requires a primitive substitution."""


class InsufficientHorizon(MinishiftError):
    """The factor set horizon is too small to answer the query."""


class NotSeparable(MinishiftError):
    """No finite-index subgroup can separate the element (it is a member)."""


class NotACode(MinishiftError):
    """The given word set is not a code (fails Sardinas-Patterson)."""


class NothingToSeparate(MinishiftError):
    """The two inputs already have equal images; separation is vacuous."""


class InternalInvariantError(MinishiftError):
    """A property guaranteed by theory failed on concrete data; a bug."""
