"""Exception types shared across the toolkit.

Each maps to a distinct CLI exit code (see cli.main).
"""


class CtxnmtError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CtxnmtError):
    """Invalid or inconsistent run configuration."""


class MalformedCorpusError(CtxnmtError):
    """Corpus data violates the file format or document-order invariants."""

    def __init__(self, message, path=None, line=None):
        if path is not None:
            where = str(path) if line is None else "%s:%d" % (path, line)
            message = "%s (%s)" % (message, where)
        super().__init__(message)


class MalformedSegmentationError(CtxnmtError):
    """Subword sequence cannot be reverted (e.g. dangling join marker)."""


class MalformedRecordError(CtxnmtError):
    """Attention record inconsistent with its example geometry."""


class NumericError(CtxnmtError):
    """Non-finite loss or gradient encountered during training/decoding."""


class InputError(CtxnmtError):
    """Invalid arguments to an evaluation operation (e.g. length mismatch)."""
