"""Exception types shared across the package."""


class ShuffleguardError(Exception):
    """Base of every error the package raises on bad input or state."""


class DomainError(ShuffleguardError, ValueError):
    """A data value falls outside the query's input domain."""


class ShapeError(ShuffleguardError, ValueError):
    """A query value does not have the shape the query expects."""


class ParameterError(ShuffleguardError, ValueError):
    """An invalid protocol or plan parameter."""


class ProtocolError(ShuffleguardError, RuntimeError):
    """A message multiset contains payloads foreign to the protocol."""


class StructureError(ShuffleguardError, RuntimeError):
    """The analyzer received an incomplete or malformed node map."""
