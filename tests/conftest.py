import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)

from heightbounds.algebraic import AlgebraicNumber, _isolated  # noqa: E402
from heightbounds.polys import parse_polynomial  # noqa: E402

# oracle digits (mpmath at 50 dps)
PHI = Fraction("1.61803398874989484820458683436563811772")
LN_PHI = Fraction("0.4812118250596034474977589134243684231352")
HALF_LN_PHI = Fraction("0.2406059125298017237488794567121842115676")
LN_2 = Fraction("0.6931471805599453094172321214581765680755")
M_LEHMER = Fraction("1.176280818259917506544070338474035050693")
SMYTH = Fraction("1.324717957244746025960908854478097340734")

LEHMER_TEXT = "x^10+x^9-x^7-x^6-x^5-x^4-x^3+x+1"


def alg(text: str, index: int) -> AlgebraicNumber:
    """Algebraic number from an irreducible polynomial and canonical root index."""
    f = parse_polynomial(text)
    return AlgebraicNumber(f, _isolated(f)[index])


def run_with_deadline(code: str, seconds: float = 60) -> str:
    """Run `code` in a fresh interpreter and return its standard output; a
    hang fails the calling test at the deadline instead of stalling the
    suite."""
    path = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    try:
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=seconds,
                              env=dict(os.environ, PYTHONPATH=path))
    except subprocess.TimeoutExpired:
        pytest.fail("did not finish within %g s" % seconds)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def recording_pool(monkeypatch):
    """Replaces multiprocessing.Pool with an in-process stand-in; the list
    it returns collects the worker count of every pool asked for, and no
    process is started."""
    import multiprocessing
    sizes = []

    class Pool:
        def __init__(self, processes=None):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return list(map(fn, items))

        def imap(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", Pool)
    return sizes


@pytest.fixture
def golden():
    return alg("x^2-x-1", 1)


@pytest.fixture
def sqrt2():
    return alg("x^2-2", 1)


@pytest.fixture
def sqrt3():
    return alg("x^2-3", 1)


@pytest.fixture
def lehmer_poly():
    return parse_polynomial(LEHMER_TEXT)
