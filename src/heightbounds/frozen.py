"""Immutable values: the one base class for the package's exact values and
its result records.

A `Frozen` value sets its slots once, in its constructor, past its own
`__setattr__`; afterwards assigning or deleting an attribute raises
`AttributeError`, so a value hashed into a memo keeps its hash.  The default
constructor takes one value per slot, positionally in slot order (base
classes first), and checks only their count; a class that checks or converts
its inputs defines its own `__init__`.  Pickling copies the slot values, and
unpickling sets them back the same way, without running the class's own
constructor again: a worker process gets the value it was sent.
"""

from __future__ import annotations


class Frozen:
    """Base of the immutable values: no assignment, pickled by its slots."""

    __slots__ = ()

    def __init__(self, *values):
        setters = self._slot_setters
        if len(values) != len(setters):
            raise TypeError("%s takes %d values (%s), %d given"
                            % (type(self).__name__, len(setters),
                               ", ".join(self._slot_names), len(values)))
        for set_slot, value in zip(setters, values):
            set_slot(self, value)

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every slot along the MRO, base classes first, walked once per class
        cls._slot_names = tuple(name for c in reversed(cls.__mro__)
                                for name in c.__dict__.get("__slots__", ()))
        # each slot's own setter, which skips the refusing __setattr__ and
        # costs less than object.__setattr__
        cls._slot_setters = tuple(getattr(cls, name).__set__ for name in cls._slot_names)

    def __setattr__(self, name, value):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __delattr__(self, name):
        raise AttributeError("%s is immutable" % type(self).__name__)

    def __reduce__(self):
        return restore, (type(self), tuple(getattr(self, name) for name in self._slot_names))


def restore(cls, values):
    """The value of class cls whose slots hold values, in `_slot_names`
    order; the class's own constructor is not run, so values must already be
    valid."""
    obj = object.__new__(cls)
    for set_slot, value in zip(cls._slot_setters, values):
        set_slot(obj, value)
    return obj
