"""Exception taxonomy shared across the toolkit.

Every error derives from AnomixError; the four families are config
problems, data problems (DataError and its subclasses), numeric failures
and verification failures.
"""


class AnomixError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfigError(AnomixError):
    """A configuration value or combination of values is not usable."""


class ShapeError(AnomixError):
    """Tensor or array shapes or dtypes do not satisfy an operation's
    contract."""


class NumericError(AnomixError):
    """A computation produced NaN/Inf or hit an invalid numeric domain."""


class DataError(AnomixError):
    """Input data cannot be used (bad file, empty set, wrong labels)."""


class FormatError(DataError):
    """A file does not match its documented byte format."""


class UnsupportedFormatError(FormatError):
    """A file is recognized but uses an encoding we do not handle."""


class InsufficientAudioError(DataError):
    """Audio is too short for the requested analysis window or patch."""


class InvalidInputError(DataError):
    """An argument value is outside the operation's domain."""


class VerificationError(AnomixError):
    """A cross-check between two independent computations disagreed."""
