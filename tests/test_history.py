"""Outputs depend only on the inputs: not on what the process computed
before, nor on the interpreter a number was pickled in."""

from conftest import run_with_deadline

COMMON = """
import json
import pickle
from fractions import Fraction
from heightbounds import jsonio
from heightbounds.algebraic import AlgebraicNumber, _isolated, as_algebraic
from heightbounds.cli import parse_algnum
from heightbounds.polys import parse_polynomial as P
from heightbounds.verify import CorollaryInstance, verify_corollary
f, g = P('x^2-x-1'), P('x^3-x-1')
golden = AlgebraicNumber(f, _isolated(f)[1])
a = AlgebraicNumber(g, _isolated(g)[0])
# the golden ratio is also rho(1, 1), which the verdict computes
inst = CorollaryInstance([as_algebraic(1), golden._add_rational(-1)], golden)
def report():
    print(json.dumps(jsonio.verdict_to_json(verify_corollary(inst, 128)), sort_keys=True))
    print(json.dumps(jsonio.algnum_to_json(a + golden), sort_keys=True))
"""

# Verifies the same numbers at 256 bits, runs other instances on the same
# minimal polynomials and narrows their boxes far past 128 bits first.
WARM_UP = """
verify_corollary(inst, 256)
verify_corollary(CorollaryInstance([golden], golden), 256)
verify_corollary(CorollaryInstance([golden, (-golden)._add_rational(1)], as_algebraic(1)), 192)
for x in (golden, a, a + golden, (a + golden) - golden, golden.inv()):
    x.box(Fraction(1, 1 << 300))
assert ((a + golden) - golden).equals(a)
"""


def test_outputs_independent_of_history(tmp_path):
    path = str(tmp_path / "numbers.pickle")
    first = run_with_deadline(
        COMMON + "report()\n"
        "with open(%r, 'wb') as fh:\n"
        "    pickle.dump([a + golden, -golden, golden._mul_rational(3)], fh)\n" % path)
    second = run_with_deadline(COMMON + WARM_UP + "report()\n")
    assert first == second
    run_with_deadline(
        COMMON + WARM_UP +
        "with open(%r, 'rb') as fh:\n"
        "    s, n, t = pickle.load(fh)\n"
        "assert s.equals(jsonio.algnum_from_json(json.loads(%r)))\n"
        "assert n.equals(parse_algnum('x^2+x-1@-1.618'))\n"
        "assert t.equals(parse_algnum('x^2-3x-9@4.854'))\n"
        "assert not t.equals(parse_algnum('x^2-3x-9@-1.854'))\n"
        % (path, first.splitlines()[1]))
