"""The row memo of `linkage._ranks` changes no answer.

`linkage._row` keeps the ranking of the last tuple ranked as lam, matched by
identity.  These tests run call sequences that reuse, interleave, copy and
mutate row objects through the four entry points built on `_ranks`, and
compare every value and every exception with a copy of the ranking that
keeps nothing between calls.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import compositions
from pericat import linkage
from pericat.glmult import (
    _class_blocks,
    _levi_sum,
    _term,
    parabolic_verma_simple_mult,
    verma_simple_mult,
)
from pericat.linkage import _walk, strong_down_set, strongly_linked
from pericat.weights import _ints, require_p_dominant


def ref_ranks(lam, mu):
    """`linkage._ranks` with no memo: both weights ranked on every call."""
    ints = _ints(lam) & _ints(mu)  # both checked, lam first
    if ints:
        lam_q, mu_q = lam, mu
    else:
        lam_q = [c.as_integer_ratio() for c in lam]
        mu_q = lam_q if mu is lam else [c.as_integer_ratio() for c in mu]
    if mu_q is not lam_q and sorted(lam_q) != sorted(mu_q):
        return None
    values = sorted(set(lam_q))
    x = tuple(map(values.index, lam_q))
    y = x if mu_q is lam_q else tuple(map(values.index, mu_q))
    if ints:
        return x, y, None
    keys = [(a % d, d) for a, d in values]
    if keys.count(keys[0]) == len(keys):
        return x, y, None
    if y is not x and [keys[r] for r in x] != [keys[r] for r in y]:
        return None
    return x, y, keys


def ref_verma(lam, mu):
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    ranked = ref_ranks(lam, mu)
    if ranked is None:
        return 0
    x, y, keys = ranked
    return _term(x, y, *_class_blocks(y, keys))


def ref_parabolic(mu, lam, p):
    """[M^p_mu : L_lam] with the p-dominance guard run on every call."""
    try:
        if len(lam) != len(mu):
            raise ValueError("dimension mismatch")
        ranked = ref_ranks(mu, lam)
    except (TypeError, ValueError):
        require_p_dominant(mu, p)
        raise
    require_p_dominant(mu, p)
    if ranked is None:
        return 0
    x, y, keys = ranked
    return _levi_sum(x, y, *_class_blocks(y, keys), p)


def ref_strongly_linked(mu, lam):
    ranked = ref_ranks(lam, mu)
    return ranked is not None and ranked[1] in _walk(ranked[0], ranked[2], 1)


def ref_strong_down_set(lam):
    r, _, keys = ref_ranks(lam, lam)
    value = dict(zip(r, lam))
    return frozenset(tuple(map(value.__getitem__, x)) for x in _walk(r, keys, 1))


# (name, engine call, reference call), each on (row, column, parabolic)
_ENTRIES = [
    ("verma", lambda r, c, p: verma_simple_mult(r, c), lambda r, c, p: ref_verma(r, c)),
    (
        "parabolic",
        lambda r, c, p: parabolic_verma_simple_mult(r, c, p),
        lambda r, c, p: ref_parabolic(r, c, p),
    ),
    (
        "strongly_linked",
        lambda r, c, p: strongly_linked(c, r),
        lambda r, c, p: ref_strongly_linked(c, r),
    ),
    ("strong_down_set", lambda r, c, p: strong_down_set(r), lambda r, c, p: ref_strong_down_set(r)),
]


def _outcome(call, *args):
    try:
        return "value", call(*args)
    except Exception as exc:  # the exception type and text are the answer
        return type(exc), str(exc)


# integral and half-integral coordinates, and a raw integral Fraction
_COORDS = st.sampled_from(
    [-1, 0, 1, 2, 3, Fraction(2), Fraction(-1, 2), Fraction(1, 2), Fraction(3, 2)]
)


def _rows(base):
    """Row objects from one weight: itself, an equal but distinct tuple, a
    list, its sorted (so not p-dominant) rearrangement, and float and bool
    copies that every entry point refuses."""
    return [
        base,
        tuple(list(base)),
        list(base),
        tuple(sorted(base)),
        tuple(map(float, base)),
        (True, *base[1:]),
    ]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_row_memo_changes_no_answer(data):
    n = data.draw(st.integers(2, 4), label="n")
    bases = data.draw(st.lists(st.tuples(*[_COORDS] * n), min_size=1, max_size=3))
    rows = [row for base in bases for row in _rows(base)]
    parabolics = list(compositions(n))
    i = 0
    for _ in range(data.draw(st.integers(4, 30), label="calls")):
        if not data.draw(st.booleans(), label="same row object"):
            i = data.draw(st.integers(0, len(rows) - 1), label="row")
        row = rows[i]
        if type(row) is list and data.draw(st.booleans(), label="mutate"):
            row[data.draw(st.integers(0, n - 1))] = data.draw(_COORDS)
        kind = data.draw(st.sampled_from(["rearranged", "pool", "self"]), label="column")
        if kind == "rearranged":
            col = tuple(row[k] for k in data.draw(st.permutations(range(n))))
        elif kind == "pool":
            col = data.draw(st.sampled_from(rows))
        else:
            col = row
        name, engine, ref = data.draw(st.sampled_from(_ENTRIES), label="entry")
        p = data.draw(st.sampled_from(parabolics), label="p")
        want = _outcome(ref, row, col, p)
        assert _outcome(engine, row, col, p) == want, (name, row, col, p)


# rows of several integrality classes, each with a parabolic that puts it
# inside Sigma_p^+ and one that does not (a Levi pair across two classes,
# or one class whose coordinates rise or repeat)
_MULTI_CLASS = [
    ((Fraction(5, 2), Fraction(1, 2), 2, 0), (2, 2), (1, 3)),
    ((3, 1, Fraction(1, 2)), (2, 1), (1, 2)),
    ((Fraction(1, 2), 2, 0, Fraction(-3, 2)), (1, 2, 1), (2, 2)),
    ((Fraction(7, 2), Fraction(3, 2), Fraction(1, 2), 1, 0), (3, 2), (1, 4)),
    ((1, Fraction(1, 2), 0), (1, 1, 1), (2, 1)),
    ((Fraction(1, 2), Fraction(3, 2), 0), (1, 1, 1), (2, 1)),
    ((Fraction(3, 2), Fraction(1, 2), 1, 1), (2, 1, 1), (2, 2)),
]


@pytest.mark.parametrize("row,inside,outside", _MULTI_CLASS)
def test_multi_class_rows_match_reference(row, inside, outside):
    from itertools import permutations

    assert require_p_dominant(row, inside) is None
    with pytest.raises(ValueError, match="is not in Sigma_p"):
        require_p_dominant(row, outside)
    n = len(row)
    columns = sorted(set(permutations(row)), key=repr)[:24] + [row, tuple(reversed(row))]
    for p in (inside, outside, (n,), (1,) * n):
        for col in columns:
            for _ in range(2):  # the same row object again: its ranks are held
                for name, engine, ref in _ENTRIES:
                    want = _outcome(ref, row, col, p)
                    assert _outcome(engine, row, col, p) == want, (name, row, col, p)


@pytest.mark.parametrize("row", [(1.5, 0, 3), (True, 0, 2)], ids=["float", "bool"])
def test_refused_row_raises_on_every_call(row):
    for mu in ((0, 2, 3), (3, 0, 2), row):
        for _ in range(2):
            with pytest.raises(TypeError, match="is not exact"):
                verma_simple_mult(row, mu)
            with pytest.raises(TypeError, match="is not exact"):
                strongly_linked(mu, row)
            with pytest.raises(TypeError, match="is not exact"):
                strong_down_set(row)


def test_non_p_dominant_row_raises_on_every_call():
    # a ranked pair, an equal but distinct tuple, the row itself, and a
    # column that does not rank: the row's p-dominance is read either way
    row = (0, 1, 2)
    for mu in ((1, 0, 2), (0, 1, 2), row, (5, 5, 5)):
        for _ in range(2):
            with pytest.raises(ValueError, match=r"0,1,2 is not in Sigma_p\^\+ for p=\(2, 1\)"):
                parabolic_verma_simple_mult(row, mu, (2, 1))


def test_list_row_is_guarded_on_every_call():
    row = [2, 1, 0]
    for _ in range(2):
        with pytest.raises(TypeError, match="weight \\[2, 1, 0\\] is a list, not a tuple"):
            parabolic_verma_simple_mult(row, (1, 2, 0), (2, 1))


def test_held_row_is_the_last_tuple_ranked():
    lam = (2, 0, Fraction(1, 2))
    assert linkage._ranks(lam, (0, 2, Fraction(1, 2))) is not None
    assert linkage._held[0] is lam
    # a list, and weights that are refused, raise and are never held
    for refused in ([2, 0, 1], (1.5, 0, 1), (True, 0, 1)):
        with pytest.raises(TypeError):
            linkage._ranks(refused, (0, 1, 2))
    assert linkage._held[0] is lam
    # one weight only: a new row takes the place of the old
    other = (1, 0)
    linkage._ranks(other, other)
    assert linkage._held[0] is other
