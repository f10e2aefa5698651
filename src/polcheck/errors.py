"""Exception types shared by the whole engine."""


class PolcheckError(Exception):
    """Base class for every error raised deliberately by this package."""


class DivisionByZero(PolcheckError, ZeroDivisionError):
    """Division by the zero element, or 0 raised to a negative power."""


class SpecMismatch(PolcheckError):
    """Operands, images or tokens belong to an incompatible field spec."""


class DenominatorVanishes(PolcheckError):
    """A substitution sent a denominator to the zero element."""


class InvalidImage(PolcheckError):
    """A constant generator image cannot embed the fraction field."""


class UnsupportedSpec(PolcheckError):
    """The requested construction does not exist over this field."""


class ArityTooLarge(PolcheckError):
    """Requested arity or increment count exceeds the configured cap."""


class ValueTooLarge(PolcheckError):
    """A value has too many decimal digits to be printed, or too high a
    degree for the exponent fields of a polynomial in several variables."""


class DictionaryInsufficient(PolcheckError):
    """The additive map is not a combination of the supplied
    homomorphisms on the probe set.  A model limitation, not a
    refutation."""

    def __init__(self, message: str, residual=None):
        super().__init__(message)
        self.residual = residual


class ParseError(PolcheckError):
    """Source text rejected.

    Carries the 0-based character ``position`` plus ``line``/``column``
    (1-based) and the set of token descriptions that would have been
    accepted.
    """

    def __init__(self, message: str, position: int, expected=(), line=None, column=None):
        loc = f"line {line}, column {column}" if line is not None else f"position {position}"
        if expected:
            message = f"{message} at {loc} (expected {', '.join(sorted(expected))})"
        else:
            message = f"{message} at {loc}"
        super().__init__(message)
        self.position = position
        self.expected = frozenset(expected)
        self.line = line
        self.column = column


class NameResolutionError(PolcheckError):
    """A session statement refers to a name that is not declared."""


class TypeMismatch(PolcheckError):
    """A session statement combines objects of the wrong kind."""
