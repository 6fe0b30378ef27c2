"""Every exact value is a `Frozen`: it refuses assignment and deletion, and a
pickle round trip gives the same value without running its constructor."""

import pickle
from fractions import Fraction

import pytest

from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic
from heightbounds.forms import (ExceptionalSet, MultihomogeneousPolynomial, ValidationReport,
                                WeightScheme)
from heightbounds.frozen import Frozen
from heightbounds.heights import HeightValue, MultiProjectivePoint
from heightbounds.intervals import Interval, Rect
from heightbounds.polys import IntPolynomial, parse_polynomial
from heightbounds.roots import RootBox, isolate_roots
from heightbounds.search import SearchSpace
from heightbounds.verify import CorollaryInstance


def golden():
    f = parse_polynomial("x^2-x-1")
    return AlgebraicNumber(f, _isolated(f)[1])


# factories, so that a deletion that wrongly succeeds spoils no shared value
VALUES = {
    "Interval": lambda: Interval(Fraction(1, 3), 2),
    "Rect": lambda: Rect(Interval(-1, 1), Interval(Fraction(1, 2), 3)),
    "RootBox-real": lambda: isolate_roots(parse_polynomial("x^2-2"))[1],
    "RootBox-nonreal": lambda: isolate_roots(parse_polynomial("x^2+x+1"))[-1],
    "IntPolynomial": lambda: parse_polynomial("3x^3-x+7"),
    "HeightValue": lambda: HeightValue(Interval(Fraction(1, 5), Fraction(2, 5)), 64),
    "MultiProjectivePoint": lambda: MultiProjectivePoint([[1, golden()], [2, 0, 5]]),
    "MultihomogeneousPolynomial": lambda: MultihomogeneousPolynomial(
        (1, 1), (1, 1), {((1, 0), (0, 1)): golden(), ((0, 1), (1, 0)): -3}),
    "ExceptionalSet": lambda: ExceptionalSet([2, 0]),
    "ValidationReport": lambda: ValidationReport(["block 0 is empty"]),
    "WeightScheme": lambda: WeightScheme(Fraction(1, 2), {(0, 0): Fraction(1, 3)}, (Fraction(1),)),
    "SearchSpace": lambda: SearchSpace(1, 3, 2, predicates=("irreducible", "totally-real")),
    "CorollaryInstance": lambda: CorollaryInstance([1, golden()], golden()._add_rational(1)),
    "AlgebraicNumber-rational": lambda: as_algebraic(Fraction(-7, 3)),
    "AlgebraicNumber": golden,
    "AlgebraicNumber-neg": lambda: -golden(),
    "AlgebraicNumber-3g": lambda: golden()._mul_rational(3),
}


def slots(v):
    """The slot names of v's class along its MRO."""
    return [name for c in type(v).__mro__ for name in c.__dict__.get("__slots__", ())]


@pytest.fixture(params=sorted(VALUES))
def value(request):
    return VALUES[request.param]()


def test_every_value_is_frozen(value):
    assert isinstance(value, Frozen)
    assert slots(value)


def test_assignment_and_deletion_raise(value):
    message = "%s is immutable" % type(value).__name__
    for name in slots(value) + ["extra"]:
        before = getattr(value, name, None)
        with pytest.raises(AttributeError, match=message):
            setattr(value, name, before)
        with pytest.raises(AttributeError, match=message):
            delattr(value, name)
        assert getattr(value, name, None) is before


def test_pickle_round_trip(value):
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is type(value)
    assert [getattr(copy, n) for n in slots(value)] == [getattr(value, n) for n in slots(value)]
    if type(value).__eq__ is not object.__eq__:
        assert copy == value


def test_restore_skips_the_constructor(monkeypatch):
    v = golden()._mul_rational(3)
    blob = pickle.dumps(v)

    def refuse(*args, **kwargs):
        raise AssertionError("constructor ran while unpickling")

    monkeypatch.setattr(AlgebraicNumber, "__init__", refuse)
    copy = pickle.loads(blob)
    assert copy.equals(v) and repr(copy) == repr(v)
