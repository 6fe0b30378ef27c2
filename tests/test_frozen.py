"""Every exact value and every result record is a `Frozen`: it refuses
assignment and deletion, and a pickle round trip gives the same value without
running its constructor.  No other class in the package declares slots."""

import importlib
import pickle
import pkgutil
import types
from fractions import Fraction

import pytest

import heightbounds
from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic
from heightbounds.bounds import bound_constants, minimize_on_interval, optimal_b, segment_min
from heightbounds.forms import (ExceptionalSet, MultihomogeneousPolynomial, ValidationReport,
                                WeightScheme, weight_scheme)
from heightbounds.frozen import Frozen
from heightbounds.heights import HeightValue, MultiProjectivePoint
from heightbounds.intervals import Interval, Rect
from heightbounds.polys import IntPolynomial, parse_polynomial
from heightbounds.roots import RootBox, isolate_roots
from heightbounds.search import SearchSpace, min_height_survey
from heightbounds.spotcheck import polydisk_spotcheck
from heightbounds.verify import (HOLDS, CorollaryInstance, HypothesisResult, Verdict,
                                 build_sum_form, schinzel_check)


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
    # the result records, each as the package builds it
    "HypothesisResult": lambda: schinzel_check(golden(), 64).verdict.hypotheses[0],
    "Verdict": lambda: schinzel_check(golden(), 64).verdict,
    "SchinzelResult": lambda: schinzel_check(golden(), 64),
    "SchinzelResult-not-applicable": lambda: schinzel_check(as_algebraic(Fraction(1, 2))),
    "SearchRecord": lambda: min_height_survey(SearchSpace(2, 2, 1), 32).minimum,
    "SurveyResult": lambda: min_height_survey(SearchSpace(1, 2, 1), 32),
    "MinimizationResult": lambda: minimize_on_interval(
        lambda iv: iv * iv - iv, Fraction(0), Fraction(1), 8),
    "SegmentMinSolution": lambda: segment_min(1, 2, 1, 16),
    "OptimalWeight": lambda: optimal_b(1, 1, 16),
    "BoundConstants": lambda: bound_constants(*build_sum_form(golden(), 1), 32),
    "SpotcheckReport": lambda: polydisk_spotcheck(
        *build_sum_form(golden(), 1), weight_scheme(*build_sum_form(golden(), 1), Fraction(1, 2)),
        trials=2, reference=0.25, seed=1),
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
    blob = pickle.dumps(value)
    copy = pickle.loads(blob)
    assert type(copy) is type(value)
    # a record equals only itself, so its copy is compared by its slots' bytes
    assert pickle.dumps(copy) == blob
    if type(value).__eq__ is not object.__eq__:
        assert [getattr(copy, n) for n in slots(value)] == [getattr(value, n) for n in slots(value)]
        assert copy == value


def test_restore_skips_the_constructor(monkeypatch):
    v = golden()._mul_rational(3)
    blob = pickle.dumps(v)

    def refuse(*args, **kwargs):
        raise AssertionError("constructor ran while unpickling")

    monkeypatch.setattr(AlgebraicNumber, "__init__", refuse)
    copy = pickle.loads(blob)
    assert copy.equals(v) and repr(copy) == repr(v)


def test_default_constructor_counts_its_values():
    assert Verdict(HOLDS, [], None, None, None, 64).precision_bits == 64
    with pytest.raises(TypeError, match="Verdict takes 6 values"):
        Verdict(HOLDS, [])
    with pytest.raises(TypeError, match="HypothesisResult takes 3 values"):
        HypothesisResult("zero-set", True, "", "extra")
    with pytest.raises(TypeError):
        HypothesisResult("zero-set", True, witness="")


def unfrozen_slotted(modules):
    """The classes defined in modules that declare `__slots__` themselves
    but are not `Frozen`."""
    return sorted("%s.%s" % (m.__name__, c.__name__) for m in modules for c in vars(m).values()
                  if isinstance(c, type) and c.__module__ == m.__name__
                  and "__slots__" in c.__dict__ and not issubclass(c, Frozen))


def test_every_slotted_class_is_frozen():
    modules = [importlib.import_module("heightbounds." + info.name)
               for info in pkgutil.iter_modules(heightbounds.__path__)
               if info.name != "__main__"]  # importing it runs the CLI
    assert len(modules) > 10
    assert unfrozen_slotted(modules) == []


def test_check_flags_an_unfrozen_slotted_class():
    module = types.ModuleType("heightbounds.injected")
    for name, bases in (("Loose", ()), ("Fine", (Frozen,)), ("Plain", (ValueError,))):
        attrs = {"__module__": module.__name__}
        if name != "Plain":
            attrs["__slots__"] = ("x",)
        setattr(module, name, type(name, bases, attrs))
    module.Imported = Fraction  # slotted, but defined elsewhere
    assert unfrozen_slotted([module]) == ["heightbounds.injected.Loose"]
