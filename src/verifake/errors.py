"""Exception and warning types, and the two checks that raise ConfigError."""

import math


class VerifakeError(Exception):
    """Base class for all errors raised by this package, and the type of
    every fault that no caller tells apart; its message names the fault."""


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


def decode_text(data: bytes) -> str:
    """`data` decoded as UTF-8; a byte that is not UTF-8 is a ConfigError
    naming the byte and its 1-based line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[: exc.start].decode("utf-8") + "x").splitlines())  # the byte's line
        raise ConfigError(f"undecodable byte {data[exc.start]:#04x}", line=line) from None


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


class SubjectOverlap(VerifakeError):
    """Training and evaluation identity sets intersect.

    `ids` lists the overlapping subject ids.
    """

    def __init__(self, ids):
        ids = sorted(ids)
        super().__init__(f"subject sets overlap on ids {ids}")
        self.ids = ids


class CalibrationWarning(UserWarning):
    """Perplexity calibration did not converge; best-effort sigma returned."""
