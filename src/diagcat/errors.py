"""Exception taxonomy shared by all diagcat modules.

Everything derives from DiagcatError so callers can catch broadly; the CLI
maps ParseError-like failures to exit code 2 and shape/validation failures
to exit code 3.  Internal consistency violations (things that cannot happen
for values built through the public constructors) use plain assert.
"""

from __future__ import annotations

__all__ = [
    "DiagcatError",
    "OverlapError",
    "CoverageError",
    "RangeError",
    "ShapeMismatch",
    "RegularityMismatch",
    "NotRegular",
    "NotIdempotent",
    "NotIrreducible",
    "BaseMismatch",
    "NegativeLabel",
    "BoundExceeded",
    "NotInvolutive",
    "CrossingError",
    "ParityError",
    "UnmatchedPoint",
    "RankZero",
    "InstanceMismatch",
    "NotAssociative",
    "NotClosed",
    "NoIdentity",
    "BadInvolution",
    "EmptyWord",
    "NotInteriorFactor",
    "MissingLetter",
    "NoInvolution",
    "UnknownMonoid",
    "ParseError",
]


class DiagcatError(Exception):
    """Base class for all diagcat errors."""


# -- value construction ------------------------------------------------------

class OverlapError(DiagcatError):
    """A vertex appears in more than one block."""


class CoverageError(DiagcatError):
    """A vertex of the ground set is missing from every block."""


class RangeError(DiagcatError):
    """An index lies outside the declared shape."""


class ShapeMismatch(DiagcatError):
    """Two arrows cannot be composed because their shapes do not meet."""


class RegularityMismatch(DiagcatError):
    """Mixed composition of a regular and a non-regular value."""


class NotRegular(DiagcatError):
    """A star/inverse operation was applied to a non-regular value."""


class NotIdempotent(DiagcatError):
    """The given square arrow is not idempotent."""


class NotIrreducible(DiagcatError):
    """The given idempotent does not have a connected ground set."""


class BaseMismatch(DiagcatError):
    """Elements over different bases were mixed where one base is required."""


class NegativeLabel(DiagcatError):
    """A non-regular labelled value was given a negative label."""


class BoundExceeded(DiagcatError):
    """An enumeration or search request exceeds a fixed size bound."""


# -- affine / annular diagrams ----------------------------------------------

class NotInvolutive(DiagcatError):
    """The partner map is not a self-inverse matching."""


class CrossingError(DiagcatError):
    """Two strings of a diagram cross."""


class ParityError(DiagcatError):
    """m and n disagree mod 2, so no perfect matching exists."""


class UnmatchedPoint(DiagcatError):
    """A marked point is missing from, or duplicated in, the partner map."""


class RankZero(DiagcatError):
    """The operation needs at least one transversal string."""


# -- auxiliary monoids -------------------------------------------------------

class InstanceMismatch(DiagcatError):
    """Elements of two different monoid instances were multiplied."""


class NotAssociative(DiagcatError):
    """A multiplication table fails associativity."""


class NotClosed(DiagcatError):
    """A multiplication table has entries outside the element set."""


class NoIdentity(DiagcatError):
    """A multiplication table has no two-sided identity element."""


class BadInvolution(DiagcatError):
    """A proposed involution violates (xy)* = y*x* or x** = x."""


# -- words and identities ----------------------------------------------------

class EmptyWord(DiagcatError):
    """The empty word met an operation that needs a letter or an identity."""


class NotInteriorFactor(DiagcatError):
    """The addressed factor is not an adjacent descending interior pair."""


class MissingLetter(DiagcatError):
    """A substitution lacks a value for some letter."""


class NoInvolution(DiagcatError):
    """A starred word was evaluated in a monoid without an involution."""


# -- CLI ---------------------------------------------------------------------

class UnknownMonoid(DiagcatError):
    """The named monoid is not registered."""


class ParseError(DiagcatError):
    """Malformed JSON or word syntax."""
