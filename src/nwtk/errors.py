"""Exception types shared across the package."""


class NwtkError(Exception):
    """Base class for all library errors."""


class DuplicateSymbol(NwtkError):
    """A symbol occurs in more than one alphabet component."""


class EmptyAlphabet(NwtkError):
    """An alphabet needs at least one stack."""


class InvalidAlphabet(NwtkError):
    """An alphabet description does not have the documented shape."""


class UnknownSymbol(NwtkError):
    """A token does not belong to the alphabet."""


class EmptyWord(NwtkError):
    """Words must contain at least one position."""


class PositionOutOfRange(NwtkError):
    """A 1-based position lies outside the word."""


class AlphabetMismatch(NwtkError):
    """Two objects were combined that live over different alphabets."""


class LengthMismatch(NwtkError):
    """A run has a different length than the word it annotates."""


class CallingStatesPresent(NwtkError):
    """The conversion to a stack machine needs an empty calling set."""


class InvalidSphere(NwtkError):
    """A sphere violates a structural invariant."""


class RadiusMismatch(NwtkError):
    """Two spheres of different radii were compared."""


class InvalidState(NwtkError):
    """A sphere-set state violates one of its membership conditions."""


class MixedRadius(NwtkError):
    """A counting expression mixes spheres of different radii."""


class UnboundVariable(NwtkError):
    """A formula was evaluated with a free variable missing from the environment."""


class WordTooLargeForSO(NwtkError):
    """Set quantification is capped to keep evaluation tractable."""


class NotAnExpandedAlphabet(NwtkError):
    """Projection expects an alphabet produced by marker expansion."""


class InvalidDirection(NwtkError):
    """A direction token is not recognized."""


class BoundTooSmall(NwtkError):
    """The search window cannot fit the requested walk."""


class BoundsExceeded(NwtkError):
    """A structure is outside the exhaustively checkable range."""


class FormulaParseError(NwtkError):
    """A formula or constraint file is not syntactically well-formed."""
