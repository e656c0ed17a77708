"""Exception hierarchy shared across the engine.

Two broad families matter to callers: input problems (bad parameters,
unparseable or inconsistent files) and numeric/runtime failures inside a
simulation. The CLI maps the former to exit code 2 and the latter to 3.
"""


class SmirError(Exception):
    """Base class for all engine errors."""


class InputError(SmirError):
    """Invalid parameters, configuration, or data files (CLI exit code 2)."""


class NumericError(SmirError):
    """A simulation failed numerically or structurally (CLI exit code 3)."""


class ParseError(InputError):
    """A file could not be parsed; carries the offending line number."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = path
        self.line_no = line_no


class ValidationError(InputError):
    """Parameters or parsed data violate an invariant; the message names it."""
