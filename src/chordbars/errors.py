"""Exception hierarchy and check report shared across the package.

Two top-level families matter for the command line tool: ParseError (bad
input bytes/schema, exit code 2) and ValidationError (mathematically
malformed but well-formed input, exit code 1).  Everything raised by the
library that a caller may want to catch lives here, and so does the one
:class:`CheckReport` that every checker of the package returns.
"""


class ChordbarsError(Exception):
    """Base class for all package errors."""


class ParseError(ChordbarsError):
    """Input could not be decoded or does not match the schema.

    ``where`` is a human-readable locator (file, JSON path, line/column).
    """

    def __init__(self, message, where=None):
        self.where = where
        if where:
            message = "%s (at %s)" % (message, where)
        super().__init__(message)


class ValidationError(ChordbarsError):
    """Well-formed input that violates a mathematical invariant."""


# -- field level ---------------------------------------------------------

class NotInvertible(ValidationError):
    """Division by zero (or by a non-unit) was attempted."""


class BadCharacteristic(ValidationError):
    """Requested F_p for a non-prime p."""


# -- filtered complex level -------------------------------------------------

class DuplicateId(ValidationError):
    pass


class ForeignGenerator(ValidationError):
    """A chain or differential references an id that is not a generator."""


class DegreeMismatch(ValidationError):
    pass


class ActionIncrease(ValidationError):
    """A differential term fails the strict action decrease."""


class ActionOutsideWindow(ValidationError):
    pass


class NotSquareZero(ValidationError):
    """The differential does not square to zero; carries a witness id."""

    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


# -- barcode level ------------------------------------------------------------

class InconsistentTable(ValidationError):
    """A persistence count table violates monotonicity."""


class EngineMismatch(ValidationError):
    """Reduction engine and definitional oracle disagree."""


# -- one-parameter family level ----------------------------------------------

class TimelineError(ValidationError):
    pass


class SimultaneousBifurcations(TimelineError):
    """Two singular events share the same time."""


class NonGenericCrossing(TimelineError):
    """A trajectory crossing lands where it makes tracking ill-defined."""


class EventPreconditionViolated(TimelineError):
    """An event's stated preconditions fail at its time; never repaired."""


# -- chord algebra level -------------------------------------------------------

class DGAError(ValidationError):
    pass


class MixedOutputViolation(DGAError):
    """Differential output breaks the mixed/pure chord bookkeeping."""


class AugmentationInvalid(DGAError):
    pass


class SearchBudgetExceeded(DGAError):
    """Exhaustive augmentation search was stopped by its budget."""


class NotChainMap(DGAError):
    pass


class OrderingViolated(DGAError):
    """A birth morphism's cascade ordering is not admissible."""


class WindowTooWide(DGAError):
    """Linearization window wider than the augmentation's reach."""


# -- displacement bounds -------------------------------------------------------

class NonMonotoneTime(ValidationError):
    pass


class RatesExceedProfile(ValidationError):
    """Declared endpoint rates are inconsistent with the oscillation profile."""


# -- check reports -------------------------------------------------------------

class CheckEntry:
    """One check of ``kind`` on ``subject`` (a generator id, a chord label or
    None) at ``at`` (a time, a (start, end) span or None)."""

    __slots__ = ("kind", "subject", "at", "ok", "detail")

    def __init__(self, kind, subject, at, ok, detail=""):
        self.kind = kind
        self.subject = subject
        self.at = at
        self.ok = ok
        self.detail = detail

    def __repr__(self):
        at = "[%s, %s]" % self.at if isinstance(self.at, tuple) else self.at
        return "CheckEntry(%s%s%s: %s%s)" % (
            self.kind, "" if self.subject is None else " on %r" % (self.subject,),
            "" if at is None else " @ t=%s" % at, "ok" if self.ok else "FAIL",
            " — " + self.detail if self.detail else "")


class CheckReport:
    """Check entries in order; ``failures()`` lists those not ok."""

    def __init__(self, entries):
        self.entries = list(entries)

    @property
    def ok(self):
        return all(e.ok for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.ok]

    def raise_first(self, exceptions):
        """Raise the first failure as exceptions[kind], or ValidationError."""
        for e in self.entries:
            if not e.ok:
                raise exceptions.get(e.kind, ValidationError)(
                    "%s (%s on %r)" % (e.detail, e.kind, e.subject))
