"""Exception and warning types, and the settings' finite-value check."""

import math


class VerifakeError(Exception):
    """Base class for all errors raised by this package."""


class DegenerateVector(VerifakeError):
    """Vector has (near-)zero norm and cannot be normalized."""


class DimensionMismatch(VerifakeError):
    """Operands have incompatible dimensions."""


class FormatError(VerifakeError):
    """Embedding file is malformed.

    `offset` is the byte offset (EMB1) and `line` the 1-based line number
    (CSV) at which the problem was detected; the message ends in
    `(at offset N)` or `(at line N)`.
    """

    def __init__(self, message, offset=None, line=None):
        if offset is not None:
            message = f"{message} (at offset {offset})"
        if line is not None:
            message = f"{message} (at line {line})"
        super().__init__(message)
        self.offset = offset
        self.line = line


class LabelError(VerifakeError):
    """Class label out of range for the classifier head."""


class NormalizationError(VerifakeError):
    """Input vectors were expected to be unit-norm but are not."""


class ConfigError(VerifakeError):
    """Invalid configuration value or file.

    `line` is the 1-based line number for file-based configs, `field`
    the offending key; both optional. `reason` is the message without
    them.
    """

    def __init__(self, message, line=None, field=None):
        parts = [message]
        if field is not None:
            parts.append(f"field '{field}'")
        if line is not None:
            parts.append(f"line {line}")
        super().__init__(": ".join(parts))
        self.reason = message
        self.line = line
        self.field = field


def check_finite(settings, *names) -> None:
    """A ConfigError naming the first of the float fields `names` of
    `settings` that is NaN or infinite: a range check such as `x <= 0`
    lets NaN through, and infinity through one bound."""
    for name in names:
        value = getattr(settings, name)
        if not math.isfinite(value):
            raise ConfigError(f"{name} must be finite, got {value!r}", field=name)


class InsufficientEnrollment(VerifakeError):
    """One or more subjects have fewer real records than the gallery size.

    `subjects` lists the offending subject ids.
    """

    def __init__(self, subjects, required):
        subjects = sorted(subjects)
        super().__init__(
            f"subjects {subjects} have fewer than {required} real records"
        )
        self.subjects = subjects
        self.required = required


class UnknownSubject(VerifakeError):
    """Probe references a host subject that is not enrolled."""


class SubjectOverlap(VerifakeError):
    """Training and evaluation identity sets intersect.

    `ids` lists the overlapping subject ids.
    """

    def __init__(self, ids):
        ids = sorted(ids)
        super().__init__(f"subject sets overlap on ids {ids}")
        self.ids = ids


class EmptyScores(VerifakeError):
    """Metric requested on an empty score list."""


class RangeError(VerifakeError):
    """Score outside the admissible [-1, 1] range."""


class CalibrationWarning(UserWarning):
    """Perplexity calibration did not converge; best-effort sigma returned."""
