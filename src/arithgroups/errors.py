"""Domain errors shared across modules, and the reader for user files.

Every error carries a stable name (its class name) which the CLI serializes
verbatim, so renaming a class here is a wire-format change.
"""


class DomainError(Exception):
    """Base class for all domain-level failures."""

    @property
    def name(self):
        return type(self).__name__


class NotInvertible(DomainError):
    pass


class NonSquarefree(DomainError):
    pass


class DivisionByZero(DomainError, ZeroDivisionError):
    pass


class ReducibleMinPoly(DomainError):
    pass


class Unverified(DomainError):
    pass


class NotUnit(DomainError):
    pass


class PrecisionMismatch(DomainError):
    pass


class SingularRoot(DomainError):
    pass


class NotARoot(DomainError, ValueError):
    pass


class SingularForm(DomainError):
    pass


class BracketNotClosed(DomainError):
    pass


class NotStabilizing(DomainError):
    pass


class BadReduction(DomainError):
    pass


class NonInvertibleDenominator(DomainError):
    def __init__(self, prime, message=None):
        self.prime = prime
        super().__init__(message or f"denominator not invertible: prime {prime} divides the modulus")


class Truncated(DomainError):
    pass


class UnsupportedDimension(DomainError, ValueError):
    pass


class UsageError(ValueError):
    """Bad input from the user, such as a malformed file.

    Not a DomainError: the CLI reports it as a usage error (exit 2).
    """


class OutOfRange(UsageError):
    """An argument outside the range an operation supports."""


def read_user_file(path, kind):
    """The lines of a UTF-8 text file the user named; UsageError when it cannot be read.

    kind names the file in the message, as in "cannot read generator file PATH".
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise UsageError(f"cannot read {kind} {path}: {exc}") from None
