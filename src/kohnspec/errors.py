"""Exception types shared across the package, and the int64 guard that
raises one of them."""

from __future__ import annotations


class KohnspecError(Exception):
    """Base class for all package-specific errors.  One that is not a
    UserError signals a bug in the package."""


class UserError(KohnspecError):
    """The request itself is at fault: bad input, a family constraint or a
    size budget.  The CLI exits 1 on these and 2 on any other KohnspecError."""


class ConstraintError(UserError, ValueError):
    """A family constructor or computation was called with parameters outside
    its constraints (e.g. an even twist order where an odd one is required).
    Also a ``ValueError``, so callers that catch that keep working."""


class NonFreeAction(UserError):
    """The requested group does not act freely on the sphere: some
    non-identity element has eigenvalue 1."""

    def __init__(self, message, witness=None):
        super().__init__(message)
        self.witness = witness


class NonIntegralDimension(KohnspecError):
    """Character averaging failed to land on an integer.  Signals a bug in
    the group catalog or in character evaluation, never a user error."""


class UnsupportedFamily(UserError):
    """No closed-form dimension formula is available for this family."""


class SizeLimit(UserError):
    """A computation was requested beyond its size budget."""


class Int64Limit(SizeLimit, OverflowError):
    """An exact integer intermediate could exceed int64: the input is too
    large for the fixed-width exact arithmetic."""


def _require_int64(bound: int) -> None:
    """Raise Int64Limit (an OverflowError and a SizeLimit) unless an a-priori
    magnitude bound fits int64."""
    if bound >= 2**63:
        raise Int64Limit(f"exact integer intermediate may reach {bound}, beyond int64")


class ClosureMismatch(KohnspecError):
    """Matrix closure of the stored generators produced a group whose order
    differs from the catalog order."""


class TruncationError(KohnspecError):
    """A generating-function polynomial had nonzero coefficients beyond its
    proven degree bound."""


class ParseError(UserError):
    """A group spec string could not be parsed."""
