"""Exception types shared across the toolkit.

cli.main reports each class with its own exit code: ConfigError 2,
DataError 3, NumericError 4, and any other CtxnmtError 1.
"""


class CtxnmtError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(CtxnmtError):
    """Invalid or inconsistent run configuration."""


class DataError(CtxnmtError):
    """Input data or arguments that break a format or invariant: corpus and
    meta files, BPE models and segmentations, attention records, id batches
    and evaluation inputs.  With `path` (and `line`) the message ends in
    "(path:line)"."""

    def __init__(self, message, path=None, line=None):
        if path is not None:
            where = str(path) if line is None else "%s:%d" % (path, line)
            message = "%s (%s)" % (message, where)
        super().__init__(message)


class NumericError(CtxnmtError):
    """Non-finite loss or gradient, or floating-point overflow, in training
    or decoding."""
