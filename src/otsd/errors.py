"""Exception types shared across the package."""


class OtsdError(Exception):
    """Base class for all package errors."""


class ParseError(OtsdError):
    """Case file text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class UnsupportedFeature(OtsdError):
    """Case file uses a construct outside the supported subset."""


class MalformedCase(OtsdError):
    """Case data is referentially or numerically inconsistent."""


class DisconnectedCase(OtsdError):
    """The all-closed graph of the case is not connected."""


class SingularSystem(OtsdError):
    """Reduced susceptance matrix is numerically singular."""


class UnbalanceableIsland(OtsdError):
    """An energized area has positive load but zero generation."""

    def __init__(self, load: float, buses=None):
        self.load = load
        self.buses = frozenset(buses) if buses is not None else frozenset()
        super().__init__(f"energized area has {load:.6g} p.u. load and no generation")


class DuplicateContingency(OtsdError):
    """Contingency block already instantiated on the model."""


class InsecurePlan(OtsdError):
    """A program's plan fails the security engine's re-screen."""


class EmptyReport(OtsdError):
    """Operation requires at least one violating contingency."""


class TooLarge(OtsdError):
    """Exhaustive enumeration guard exceeded."""
