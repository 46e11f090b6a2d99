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
    # the message names the line when printed, so ``line`` can be set later
    def __init__(self, message, trajectory_id=None, field=None, line=None):
        super().__init__(message)
        self.trajectory_id = trajectory_id
        self.field = field
        self.line = line

    def __str__(self) -> str:
        tags = (("id", self.trajectory_id, repr), ("field", self.field, str),
                ("line", self.line, str))
        tags = [f"{key}={show(v)}" for key, v, show in tags if v is not None]
        return " ".join([self.args[0], *tags])


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
