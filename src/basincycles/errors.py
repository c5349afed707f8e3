"""Exception types shared across the package."""


class BasincyclesError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(BasincyclesError):
    """A landscape description failed validation (maps to CLI exit code 2)."""


class MalformedInput(ValidationError):
    """Input does not parse or violates the file grammar."""


class DuplicateState(ValidationError):
    """The same state id is declared twice."""


class AsymmetricEdge(ValidationError):
    """Conflicting rates were given for the two directions of an edge."""


class RowSumExceedsOne(ValidationError):
    """Some state's outgoing rates sum to more than 1."""


class DisconnectedGraph(ValidationError):
    """The positive-rate graph is not connected."""


class UnknownStateInEdge(ValidationError):
    """An edge references a state id that was never declared."""


class ScaleOverflow(ValidationError):
    """A value is not representable at the landscape's fixed-point scale."""


class EmptySet(BasincyclesError):
    """A set operation was given an empty state set."""


class ForeignState(BasincyclesError):
    """A state set references a state outside its landscape."""


class NotACycle(BasincyclesError):
    """The given state set is not a cycle of the landscape."""


class NonpositiveBeta(BasincyclesError):
    """Inverse temperature must be strictly positive here."""


class TooLarge(BasincyclesError):
    """The landscape exceeds the size guard of an exhaustive scan."""


class AlreadyTerminal(BasincyclesError):
    """The partition is already the single whole-space class."""


class NonTermination(BasincyclesError):
    """The recursion failed to terminate; indicates an engine bug."""


class InvalidSpec(BasincyclesError):
    """A simulation spec has out-of-range or inconsistent fields."""


class StateOutsideCycle(BasincyclesError):
    """A simulation start or visit state lies outside the given cycle."""
