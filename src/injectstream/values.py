"""The decorator of the library's value types: ``Edge``, ``AugPath`` and ``Element``.

It lives apart from the modules that define them, so that neither imports
the other.
"""

from dataclasses import FrozenInstanceError, dataclass
from typing import Any

# sets a field of a frozen value type once, in its __init__
_set = object.__setattr__


def value_type(cls: type) -> type:
    """``dataclass(frozen=True, slots=True)`` that refuses every attribute
    write and delete with FrozenInstanceError.  On Python 3.11 the generated
    refusals raise TypeError for a name that is not a field, because they
    test against the class from before the slots were added."""
    cls = dataclass(frozen=True, slots=True)(cls)
    cls.__setattr__, cls.__delattr__ = _refuse_set, _refuse_del
    return cls


def _refuse_set(self, name: str, value: Any) -> None:
    raise FrozenInstanceError(f"cannot assign to field {name!r}")


def _refuse_del(self, name: str) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")
