"""Exception hierarchy shared by all modules, and their integer-argument check."""


class ArctanForgeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(ArctanForgeError, ValueError):
    """An argument is outside its documented domain (e.g. digits < 1)."""


def check_int(value, name: str, least: int | None = None) -> None:
    """Raise InvalidArgumentError unless value is an int (not a bool) >= least.

    The message names the argument and its bound, never the value: an int
    past the interpreter's int-str limit cannot be formatted.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise InvalidArgumentError(f"{name} must be an int")
    if least is not None and value < least:
        raise InvalidArgumentError(f"{name} must be at least {least}")


class InvalidRadicandError(ArctanForgeError):
    """Radicand of a surd must be a positive integer."""


class IncompatibleFieldError(ArctanForgeError):
    """Arithmetic mixed two distinct quadratic fields (different radicands)."""


class UnsupportedRadicalError(ArctanForgeError):
    """A required square root does not exist inside a single quadratic field."""


class RightAngleError(ArctanForgeError):
    """The requested tangent is that of an odd multiple of pi/2."""


class DegenerateArgumentError(ArctanForgeError):
    """An argument sits on a singular point of the operation (e.g. x = +-1)."""


class InconsistentInputError(ArctanForgeError):
    """Inputs contradict each other (e.g. alpha is not a root of the given polynomial)."""


class DegenerateIdentityError(ArctanForgeError):
    """The identity pins no multiple of pi (rhs vanishes after reduction)."""


class IdentitySyntaxError(ArctanForgeError):
    """Malformed identity text.  Carries the 1-based column of the offence."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.message = message
        self.column = column
