"""Exception taxonomy shared by the library and the command line.

Two user-visible classes: `ValidationError` for structurally bad inputs
(malformed partitions, incompatible histograms, non-PSD covariance specs,
missing required options) and `NumericError` for computations that started
from valid inputs but failed numerically (non-finite values, quadrature that
will not converge).  The CLI maps them to exit codes 1 and 2.

Every exception carries a short machine-parsable `code` ("area/problem") so
errors stay greppable in logs; the human-readable detail goes in the message.
"""

from __future__ import annotations


class HistolimError(Exception):
    """Base class; `code` is a stable slash-separated identifier."""

    def __init__(self, code: str, message: str):
        self.code = code
        super().__init__(message)


class ValidationError(HistolimError, ValueError):
    """Structurally invalid input (CLI exit code 1)."""


class NumericError(HistolimError, ArithmeticError):
    """Numerical failure on valid input (CLI exit code 2)."""


def refuse_unread(obj: dict, reads, code: str, what: str) -> None:
    """Refuse, with `code`, the first key of `obj` that is not among the keys
    `reads` that its reader reads; `what` names the object in the message."""
    for key in obj:
        if key not in reads:
            raise ValidationError(code, f"unknown key {key!r} in a {what}; "
                                        f"it reads {', '.join(reads)}")
