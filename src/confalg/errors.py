"""Exception types shared across the confalg kernel.

Every error raised by the kernel derives from :class:`ConfalgError`, so
callers (in particular the CLI) can distinguish "the input is bad" from a
genuine bug in the kernel itself.
"""

from __future__ import annotations


class ConfalgError(Exception):
    """Base class for all errors raised by this package."""


class DuplicateBinding(ConfalgError):
    """The same variable was bound twice in a simultaneous substitution."""


class ArityMismatch(ConfalgError):
    """A multilinear table was applied to the wrong number of arguments."""


class ModuleMismatch(ConfalgError):
    """An element or map belongs to a different free module than expected."""


class RankMismatch(ConfalgError):
    """Two structures that must share a rank do not."""


class ShapeMismatch(ConfalgError):
    """Sources, targets, or arities of the given objects do not line up."""


class InvalidEntry(ConfalgError):
    """A structure table entry uses variables its arity does not allow."""


class NotAssociative(ConfalgError):
    """A construction required an associative algebra but the check failed."""


class NotSkewSymmetric(ConfalgError):
    """A Lie-flavored table fails skew-symmetry at construction time."""


class NotBimodule(ConfalgError):
    """A construction required a valid bimodule but the axioms failed."""


class NotCocycle(ConfalgError):
    """A construction required a 2-cocycle but the coboundary is nonzero."""


class NotInvertible(ConfalgError):
    """A module map required to be invertible has non-unit determinant."""


class NotOOperator(ConfalgError):
    """A construction required a verified O-operator but the check failed."""


class NotNijenhuis(ConfalgError):
    """A construction required a Nijenhuis operator but the check failed."""


class NotTwistedRB(ConfalgError):
    """A construction required a twisted Rota-Baxter operator but it failed."""


class NotDerivation(ConfalgError):
    """A construction required a derivation but the Leibniz check failed."""


class NotNilpotentWithinBound(ConfalgError):
    """An operator's powers did not vanish within the requested bound."""


class NotDendriform(ConfalgError):
    """A construction required a valid dendriform structure but it failed."""


class PreconditionFailed(ConfalgError):
    """A documented precondition of an operation does not hold."""


class ExponentOverflow(ConfalgError):
    """An exponent exceeds the cap of the polynomial kernel (``polyring.EXP_MAX``)."""


class TermOverflow(ConfalgError):
    """An intermediate polynomial exceeds the kernel's term cap (``polyring.MAX_TERMS``)."""


class ParseError(ConfalgError):
    """A syntax error in DSL or polynomial text, with source position."""

    def __init__(self, message: str, line: int = 1, column: int = 1) -> None:
        super().__init__(f"{message} (line {line}, column {column})")
        self.message = message
        self.line = line
        self.column = column


class UnresolvedName(ConfalgError):
    """A DSL statement referenced a name that was never declared."""


class DuplicateName(ConfalgError):
    """A DSL declaration reused a name already taken by the same kind."""
