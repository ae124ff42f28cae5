"""The ValueErrors a library check raises for one named argument or layer."""

from contextlib import contextmanager


class FieldError(ValueError):
    """A ValueError naming the argument or dataclass field it rejects, so a
    caller can report it under its own name for that value."""

    def __init__(self, field, message):
        super().__init__(message)
        self.field = field

    def __reduce__(self):   # pickle rebuilds it from both arguments
        return type(self), (self.field, str(self)), self.__dict__


@contextmanager
def blame(field):
    """Re-raise any ValueError of the block, a FieldError of an inner call
    included, as a FieldError naming ``field``."""
    try:
        yield
    except ValueError as exc:
        raise FieldError(field, str(exc)) from None


class LayerError(ValueError):
    """A ValueError about one parameterized layer's tensor; its message
    starts with ``layer <index>:``."""

    def __init__(self, layer, message):
        super().__init__(f"layer {layer}: {message}")
        self.layer = layer

    def __reduce__(self):   # pickle rebuilds it from both arguments
        message = str(self).removeprefix(f"layer {self.layer}: ")
        return type(self), (self.layer, message), self.__dict__
