"""The ValueError a library check raises for one named argument."""

from contextlib import contextmanager


class FieldError(ValueError):
    """A ValueError naming the argument or dataclass field it rejects, so a
    caller can report it under its own name for that value."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field


@contextmanager
def blame(field):
    """Re-raise any ValueError of the block, a FieldError of an inner call
    included, as a FieldError naming ``field``."""
    try:
        yield
    except ValueError as exc:
        raise FieldError(field, str(exc)) from None
