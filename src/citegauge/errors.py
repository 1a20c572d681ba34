"""Exception hierarchy shared across the package.

Data errors carry enough position information (line number, field, row/col)
to point at the offending input without a stack trace.
"""


class CiteGaugeError(Exception):
    """Base class for all package errors."""


# --- corpus ---

class CorpusError(CiteGaugeError):
    """A corpus line failed validation."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MissingField(CorpusError):
    pass


class NegativeCount(CorpusError):
    pass


class CitationBeforePublication(CorpusError):
    pass


class EmptyId(CorpusError):
    pass


class DuplicateId(CorpusError):
    pass


class ParseError(CorpusError):
    pass


# --- nomination ledger ---

class LedgerError(CiteGaugeError):
    """A nomination ledger line is unreadable."""

    def __init__(self, message, line):
        self.line = line
        super().__init__(f"line {line}: {message}")


# --- ingest ---

class IngestError(CiteGaugeError):
    pass


class HttpError(IngestError):
    def __init__(self, status, message=""):
        self.status = status
        super().__init__(f"HTTP {status}: {message}" if message else f"HTTP {status}")


class RateLimited(IngestError):
    """Raised after the internal retry budget for 429 responses is exhausted."""


class NotFound(IngestError):
    def __init__(self, paper_id):
        self.paper_id = paper_id
        super().__init__(f"paper not found: {paper_id}")


class EmptyInput(IngestError):
    pass


class HeaderMismatch(IngestError):
    pass


class NonIntegerCount(IngestError):
    def __init__(self, row, col, value):
        self.row = row
        self.col = col
        super().__init__(f"row {row}, column {col!r}: not a non-negative integer: {value!r}")


# --- statistics / model ---

class StatsError(CiteGaugeError):
    pass


class EmptyGroup(StatsError):
    pass


class EmptyCohort(StatsError):
    pass


class TooFewRows(StatsError):
    pass


class PooledLabelClash(StatsError):
    """A kept venue carries the label of the level smaller venues pool into."""


class RankDeficient(StatsError):
    def __init__(self, columns):
        self.columns = list(columns)
        super().__init__(f"design matrix is rank deficient; collinear columns: {self.columns}")


class DimensionMismatch(StatsError):
    pass


class ConstantOutcome(StatsError):
    """Every paper has the same outcome, so there is no variance to fit."""


class ModelFileError(CiteGaugeError):
    """A fitted-model file is unreadable or lacks a well-typed field."""
