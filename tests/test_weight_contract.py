"""The exactness contract of the public weight API.

Every public function of the engine modules whose first parameter is a
`Weight` and that answers about it refuses a coordinate that is not an int
or Fraction: a float, a bool or a string, numeric or not, gives TypeError
or ValueError naming that coordinate, at the Borel (no Levi pair reads it)
and at p = (2, 1) (the Levi pair (0, 1) reads it), and never an answer or
an AttributeError.  A weight is a tuple: the list of GOOD's coordinates
gives TypeError naming that list, at both parabolics.
"""

import enum
import importlib
import inspect
import re

import pytest

from pericat.glmult import verma_simple_mult
from pericat.linkage import strongly_linked

MODULES = ("weights", "linkage", "glmult", "tilting", "characters", "pe3.tables")

# Functions that give no verdict about the weight: they only rewrite or
# print its coordinates, whatever their type.
EXEMPT = {
    "format_weight": "prints each coordinate with str, the inverse of parse_weight",
    "negate": "negates each coordinate; callers guard the weight first",
    "degree": "sums the coordinates; callers guard the weight first",
    "neg_w0p": "permutes and negates; callers guard the weight first",
}

BAD = (1.5, True, "x", "1")  # a float, a bool, a non-numeric and a numeric string
PARABOLICS = ((1, 1, 1), (2, 1))
GOOD = (2, 0, 3)  # p-dominant and weakly typical at both parabolics
EXTRA = {"q": 1, "i": 1, "k": 1, "mu": GOOD, "lam": GOOD}


def _weight_functions():
    for name in MODULES:
        module = importlib.import_module(f"pericat.{name}")
        for fname, f in sorted(vars(module).items()):
            if fname.startswith("_") or not inspect.isfunction(f):
                continue
            if f.__module__ != module.__name__:
                continue
            params = list(inspect.signature(f).parameters.values())
            if params and params[0].annotation in ("Weight", "pericat.weights.Weight"):
                yield f"{name}.{fname}", f, params


FUNCTIONS = list(_weight_functions())


def _cases():
    for label, f, params in FUNCTIONS:
        if f.__name__ in EXEMPT:
            continue
        takes_p = any(q.name == "p" for q in params)
        for p in PARABOLICS if takes_p else (None,):
            for at in (0, 1):  # both coordinates of the Levi pair (0, 1)
                for c in BAD:
                    lam = list(GOOD)
                    lam[at] = c
                    named = rf"(coordinate|Fraction:) {re.escape(repr(c))}"
                    yield pytest.param(f, params, p, tuple(lam), named, id=f"{label}-{p}-{at}-{c!r}")
            named = rf"weight {re.escape(repr(list(GOOD)))} is a list, not a tuple"
            yield pytest.param(f, params, p, list(GOOD), named, id=f"{label}-{p}-list")


def test_coverage():
    names = {label.rsplit(".", 1)[1] for label, _, _ in FUNCTIONS}
    assert set(EXEMPT) <= names
    assert {"is_p_dominant", "is_dominant", "delta", "lookup_tilting_pe3"} <= names
    assert len(FUNCTIONS) - len(EXEMPT) >= 20


@pytest.mark.parametrize("f, params, p, lam, named", list(_cases()))
def test_inexact_coordinate_is_refused(f, params, p, lam, named):
    args = [lam]
    for q in params[1:]:
        if q.name == "p":
            args.append(p)
        elif q.name in EXTRA:
            args.append(EXTRA[q.name])
        else:
            assert q.default is not inspect.Parameter.empty, q.name
    with pytest.raises((TypeError, ValueError), match=named):
        f(*args)


def test_int_subclass_coordinate_answers_as_its_int():
    # the check refuses by isinstance, as the engine always has: an IntEnum
    # coordinate is an int, so it answers as that int does
    one = enum.IntEnum("One", {"ONE": 1}).ONE
    assert strongly_linked((one, 0, 2), (one, 2, 0)) is strongly_linked((1, 0, 2), (1, 2, 0)) is True
    assert verma_simple_mult((3, 2, one, 0), (0, 2, one, 3)) == verma_simple_mult((3, 2, 1, 0), (0, 2, 1, 3))
