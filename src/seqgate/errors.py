"""Exception types shared across the package.

Every error carries a stable ``code`` string (UPPER_SNAKE of the class
name) so the CLI can emit machine-parseable failure lines.
"""

import re


class SeqgateError(Exception):
    @property
    def code(self) -> str:
        name = type(self).__name__
        return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).upper()


class InvalidTrajectory(SeqgateError):
    def __init__(self, message, trajectory_id=None, field=None, line=None):
        parts = [message]
        if trajectory_id is not None:
            parts.append(f"id={trajectory_id!r}")
        if field is not None:
            parts.append(f"field={field}")
        if line is not None:
            parts.append(f"line={line}")
        super().__init__(" ".join(parts))
        self.trajectory_id = trajectory_id
        self.field = field
        self.line = line


class DegenerateSplit(SeqgateError):
    pass


class OutOfRange(SeqgateError, ValueError):
    """A value outside its documented range or type; a ValueError too."""


class SingleClassData(SeqgateError):
    pass


class DimensionMismatch(SeqgateError):
    pass


class LengthMismatch(SeqgateError):
    pass


class NoOverlap(SeqgateError):
    pass


class EmptyPrefix(SeqgateError):
    pass


class NoNullTrajectories(SeqgateError):
    pass


class InsufficientCalibration(SeqgateError):
    """Raised when n null samples cannot certify the requested (alpha, delta)."""

    def __init__(self, n, alpha, delta, min_n):
        super().__init__(
            f"{n} null trajectories cannot certify alpha={alpha}, delta={delta}; "
            f"need at least n={min_n}"
        )
        self.n = n
        self.alpha = alpha
        self.delta = delta
        self.min_n = min_n


class MonitorClosed(SeqgateError):
    pass


class MissingTokens(SeqgateError):
    pass


class ParseError(SeqgateError):
    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
