"""Immutable values: the one base class for the package's exact values.

A `Frozen` value sets its slots once, in its constructor, through
`object.__setattr__`; afterwards assigning or deleting an attribute raises
`AttributeError`, so a value hashed into a memo keeps its hash.  Pickling
copies the slot values, and unpickling sets them back the same way, without
running the constructor again: a worker process gets the value it was sent.
"""

from __future__ import annotations


class Frozen:
    """Base of the immutable values: no assignment, pickled by its slots."""

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every slot along the MRO, base classes first, walked once per class
        cls._slot_names = tuple(name for c in reversed(cls.__mro__)
                                for name in c.__dict__.get("__slots__", ()))

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return restore, (type(self), tuple(getattr(self, name) for name in self._slot_names))


def restore(cls, values):
    """The value of class cls whose slots hold values, in `_slot_names`
    order; the constructor is not run, so values must already be valid."""
    obj = object.__new__(cls)
    for name, value in zip(cls._slot_names, values):
        object.__setattr__(obj, name, value)
    return obj
