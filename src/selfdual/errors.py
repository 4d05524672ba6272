"""Domain errors raised by this package.

Every error carries a stable ``code`` string so the CLI can emit it
machine-readably.  ``PreconditionFailed`` additionally names the violated
condition in ``reason``.
"""
from __future__ import annotations


class SelfDualError(Exception):
    """Base class for all domain errors."""

    code = "Error"

    def __init__(self, message: str = ""):
        super().__init__(message or self.code)
        self.message = message or self.code


# --- field construction ---

class NotPrime(SelfDualError):
    code = "NotPrime"


class DegreeZero(SelfDualError):
    code = "DegreeZero"


class SizeGuardExceeded(SelfDualError):
    code = "SizeGuardExceeded"


class ZeroElement(SelfDualError):
    code = "ZeroElement"


class OrderDoesNotDivide(SelfDualError):
    code = "OrderDoesNotDivide"


class DiscreteLogGuardExceeded(SelfDualError):
    code = "DiscreteLogGuardExceeded"


# --- number theory ---

class FactorizationGuardExceeded(SelfDualError):
    code = "FactorizationGuardExceeded"


class NotDivisor(SelfDualError):
    code = "NotDivisor"


class EvenN(SelfDualError):
    code = "EvenN"


# --- cyclotomic machinery ---

class NotCoprime(SelfDualError):
    code = "NotCoprime"


class ZeroInSet(SelfDualError):
    code = "ZeroInSet"


# --- codes ---

class RootsNotInField(SelfDualError):
    code = "RootsNotInField"


class NotDividing(SelfDualError):
    code = "NotDividing"


class NotOverTower(SelfDualError):
    code = "NotOverTower"


class NoCyclicStructure(SelfDualError):
    code = "NoCyclicStructure"


class GuardExceeded(SelfDualError):
    code = "GuardExceeded"


# --- constructions ---

class NoSolution(SelfDualError):
    code = "NoSolution"


class CharDividesN(SelfDualError):
    code = "CharDividesN"


class NoGamma(SelfDualError):
    code = "NoGamma"


class OddLength(SelfDualError):
    code = "OddLength"


class TooLong(SelfDualError):
    code = "TooLong"


class DuplicatePoints(SelfDualError):
    code = "DuplicatePoints"


class PreconditionFailed(SelfDualError):
    """A named construction precondition does not hold."""

    code = "PreconditionFailed"

    def __init__(self, reason: str, message: str = ""):
        super().__init__(message or reason)
        self.reason = reason


class VerificationFailed(SelfDualError):
    """A constructed code failed one of its mandatory checks."""

    code = "VerificationFailed"

    def __init__(self, predicate: str, message: str = ""):
        super().__init__(message or predicate)
        self.predicate = predicate


# --- input handling (CLI / serialization) ---

class MalformedInput(SelfDualError):
    code = "MalformedInput"


def json_int(value) -> int:
    """``value`` if it is a JSON integer: not a float, str or bool."""
    if type(value) is not int:
        raise MalformedInput("expected a JSON integer, got %r" % (value,))
    return value
