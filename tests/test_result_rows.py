"""The conversions and theta return their answer as scaled-int rows.

A result holds its certified form (symbol, d, rows) and builds its
(symbol, weight) terms only when they are first read; the next operation
reads the rows as they are.  On the heads of perfbench's tilting-sweep and
on every theta image that `verify_tables(12)` decomposes, these tests compare
the results' values, and their first repr, hash and JSON reads, with the
reference's characters; `_rows_from_view` checks the order of their terms.
"""

import copy
import pickle
from fractions import Fraction

import pytest

import reference
from conftest import W, formal, sweep_items
from pericat import characters
from pericat.characters import (
    NABLA,
    FormalChar,
    SimpleBasis,
    _guard,
    _theta_images,
    char_from_json,
    char_to_json,
    delta_sum_to_nabla_sum,
    nabla,
    nabla_sum_to_delta_sum,
    symbol,
    theta_char,
)
from pericat.pe3 import verify
from pericat.pe3.tables import NoTableEntry, lookup_tilting_pe3
from pericat.tilting import NotWeaklyTypical, weakly_typical_tilting
from pericat.weights import scale

# --- the cases -------------------------------------------------------------------


def _sweep_heads():
    """The tilting character of every head of tilting-sweep at seeds 31 and
    2002 that has one."""
    chars = []
    for lam, p in sweep_items():
        try:
            chars.append(
                lookup_tilting_pe3(lam, p) if len(lam) == 3 else weakly_typical_tilting(lam, p)
            )
        except (NoTableEntry, NotWeaklyTypical):
            pass
    return chars


def _alphabet(chi):
    coords = {c for mu in chi.support() for c in mu}
    return sorted(coords | {c - 2 for c in coords})


def _reference_results(chi, alphabet):
    """The reference's characters for `_results(chi, alphabet)`; theta of chi
    is read back from theta of its Delta form, as `reference.theta` does."""
    dlt = reference.delta_form(reference.terms(chi))
    images = reference.theta(alphabet, dlt)
    return [dlt, reference.nabla_form(dlt)] + list(map(reference.nabla_form, images)) + images


@pytest.fixture(scope="module")
def sweep_cases():
    """(chi, alphabet, the reference's results, as FormalChars) per sweep head."""
    cases, known = [], {}
    for chi in _sweep_heads():
        alphabet = _alphabet(chi)
        if chi not in known:  # a head may recur in the sweep
            want = _reference_results(chi, alphabet)
            known[chi] = want, list(map(formal, want))
        cases.append((chi, alphabet, *known[chi]))
    assert len(cases) > 800
    return cases


@pytest.fixture(scope="module")
def verify_images():
    """(alphabet, chi, the reference's images) per _theta_images call of verify_tables(12)."""
    calls = []
    images = verify._theta_images

    def record(alphabet, chi):
        calls.append((list(alphabet), FormalChar(dict(chi.terms))))
        return images(alphabet, chi)

    verify._theta_images = record
    try:
        verify.verify_tables(12)
    finally:
        verify._theta_images = images
    assert len(calls) > 100
    return [
        (alphabet, chi, list(map(formal, reference.theta(alphabet, reference.terms(chi)))))
        for alphabet, chi in calls
    ]


def _results(chi, alphabet):
    """The new route's results: the Delta form, its Nabla form, and theta of
    chi and of the Delta form at every a of the alphabet, each still unread."""
    delta_form = nabla_sum_to_delta_sum(chi)
    new = [delta_form, delta_sum_to_nabla_sum(delta_form)]
    return new + _theta_images(alphabet, chi) + _theta_images(alphabet, delta_form)


_READS = {
    "terms": reference.terms,
    "repr": repr,
    "hash": hash,
    "json": lambda chi: char_to_json(chi, empty_basis=NABLA),
}


@pytest.mark.parametrize("read", list(_READS), ids=list(_READS))
def test_sweep_results_read_as_the_reference(sweep_cases, read):
    """Each read is the first one of a fresh result."""
    for chi, alphabet, _, want in sweep_cases:
        got = [_READS[read](r) for r in _results(chi, alphabet)]
        assert got == [_READS[read](w) for w in want], chi


def test_sweep_results_equal_the_reference(sweep_cases):
    for chi, alphabet, want, formal_want in sweep_cases:
        new = _results(chi, alphabet)
        assert [r.is_zero() for r in new] == [not w for w in want]
        assert new == formal_want and formal_want == new


@pytest.mark.parametrize("read", list(_READS), ids=list(_READS))
def test_verify_theta_images_read_as_the_reference(verify_images, read):
    for alphabet, chi, want in verify_images:
        got = [_READS[read](r) for r in _theta_images(alphabet, chi)]
        assert got == [_READS[read](w) for w in want]
        assert _theta_images(alphabet, chi) == want


# --- the rows a result holds --------------------------------------------------------


def _unread(result):
    """A result holds only its form (sym, d, rows) until its terms are read."""
    try:
        object.__getattribute__(result, "terms")  # no __getattr__ build
    except AttributeError:
        return len(result._form) == 3
    return False


def _rows_from_view(result):
    """(d, e) for an unread result held at d whose terms, once read, have
    least common denominator e: its rows must be what scale and _guard
    give from its terms, scaled by d/e."""
    assert _unread(result)
    sym, d, rows = result._form
    assert all(rows.values())
    view = result.terms
    e, xs = scale([lam for _, lam in view])
    _guard(xs, sym.parabolic, e)
    assert d % e == 0
    m = d // e
    assert list(rows.items()) == [
        (tuple(v * m for v in x), c) for x, c in zip(xs, view.values())
    ]
    assert {s for s, _ in view} == {sym}
    return d, e


def test_sweep_results_hold_the_rows_of_their_terms(sweep_cases):
    for chi, alphabet, _, _ in sweep_cases:
        for result in _results(chi, alphabet):
            if not result.is_zero():
                _rows_from_view(result)


def test_results_may_hold_a_finer_denominator():
    """theta keeps the d it computed with: a term of a finer denominator
    that theta drops, or a finer a in the same alphabet, leaves a result
    whose rows are scaled by more than its least common denominator."""
    mixed = nabla(W("1/3", 0, 1)) + nabla(W("1/2", -1, 1))
    image = theta_char(Fraction(1, 2), mixed)
    assert _rows_from_view(image) == (6, 2)
    assert image == theta_char(Fraction(1, 2), nabla(W("1/2", -1, 1)))
    half = lookup_tilting_pe3(W("1/2", "3/2", "5/2"))
    coarse, finer = _theta_images([Fraction(1, 2), Fraction(1, 3)], half)
    assert finer.is_zero()  # no coordinate of a half-integral weight is a third
    assert _rows_from_view(coarse) == (6, 2)
    assert [reference.terms(coarse)] == reference.theta([Fraction(1, 2)], reference.terms(half))
    # a result of d = 6 converts as its terms do
    for result in (image, coarse):
        fresh = FormalChar(result.terms.copy())
        for op in (nabla_sum_to_delta_sum, lambda c: theta_char(Fraction(3, 2), c)):
            assert list(op(result).terms.items()) == list(op(fresh).terms.items())


# --- no view until it is read -------------------------------------------------------


def test_operations_on_results_unscale_nothing(monkeypatch):
    """nabla -> delta -> nabla -> theta reads each result's rows: no scale,
    no guard and no unscale until a result's terms are read."""
    calls = []
    for name in ("unscale", "scale", "_guard"):
        real = getattr(characters, name)
        monkeypatch.setattr(
            characters, name, lambda *args, _real=real, _name=name: (calls.append(_name), _real(*args))[1]
        )
    chi = lookup_tilting_pe3(W("1/2", "3/2", "5/2"))
    delta_form = nabla_sum_to_delta_sum(chi)
    assert calls == ["scale", "_guard"]  # chi, built from terms, is certified once
    calls.clear()
    back = delta_sum_to_nabla_sum(delta_form)
    images = [theta_char(a, back) for a in (Fraction(1, 2), Fraction(-1, 2), Fraction(5, 2))]
    images += _theta_images([Fraction(1, 2), Fraction(3, 2)], delta_form)
    assert not delta_form.is_zero() and not back.is_zero()
    assert sum(not r.is_zero() for r in images) >= 2
    assert calls == []
    assert back == chi
    assert calls == ["unscale"]
    assert repr(back) == repr(chi) and calls == ["unscale"]  # the view is kept


def test_is_zero_reads_no_view():
    chi = lookup_tilting_pe3(W("1/2", "3/2", "5/2"))
    result = nabla_sum_to_delta_sum(chi)
    assert not result.is_zero()
    assert _unread(result)
    assert theta_char(7, chi).is_zero() and theta_char(7, chi) == FormalChar()


def test_results_refuse_the_wrong_basis_without_a_view():
    result = nabla_sum_to_delta_sum(lookup_tilting_pe3(W(0, 1, 2)))
    with pytest.raises(SimpleBasis, match="expected a Nabla-basis character, got 'delta'"):
        nabla_sum_to_delta_sum(result)
    assert _unread(result)


def _outcome(op, chi):
    try:
        return "value", list(op(chi).terms.items())
    except Exception as exc:  # the exception type and text are the answer
        return type(exc), str(exc)


def test_read_results_refuse_changes_in_place():
    """Once its terms are read, a result keeps the rows it was built from:
    every write into its terms raises, and it answers as a fresh copy
    does."""
    result = nabla_sum_to_delta_sum(lookup_tilting_pe3(W("1/2", "3/2", "5/2")))
    (sym, lam), c = next(iter(result.terms.items()))

    def same_as_fresh_copy():
        for op in (delta_sum_to_nabla_sum, lambda c: theta_char(Fraction(3, 2), c)):
            want = _outcome(op, FormalChar(result.terms.copy()))
            assert _outcome(op, result) == _outcome(op, result) == want

    same_as_fresh_copy()
    form, before = result._form, result.terms.copy()
    for key, v in (((sym, lam), c + 1), ((sym, tuple(Fraction(x) for x in lam)), 1), ((sym, (True, 0, 5)), 1)):
        with pytest.raises(TypeError):
            result.terms[key] = v
    with pytest.raises(TypeError):
        del result.terms[sym, lam]
    assert result.terms == before and result._form is form
    same_as_fresh_copy()


def test_operations_never_see_a_zero_coefficient():
    """Coefficients 0 given to FormalChar are dropped, so a character built
    with them answers as one built without them, in both conversions and
    theta; with every coefficient 0 it is the zero character."""
    nab = lookup_tilting_pe3(W(0, 1, -1))
    dlt = nabla_sum_to_delta_sum(nab)
    for chi, convert in ((nab, nabla_sum_to_delta_sum), (dlt, delta_sum_to_nabla_sum)):
        ops = [convert] + [
            lambda c, a=a: theta_char(a, c) for a in sorted({v for _, lam in chi.terms for v in lam})
        ]
        keys = list(chi.terms)
        for k in range(len(keys) + 1):
            zeros = dict.fromkeys(keys[:k], 0)
            with_zeros = FormalChar({**chi.terms, **zeros})
            fresh = FormalChar({key: c for key, c in chi.terms.items() if key not in zeros})
            assert 0 not in with_zeros.terms.values() and with_zeros == fresh
            for op in ops:
                assert _outcome(op, with_zeros) == _outcome(op, fresh)
        assert with_zeros.is_zero() and all(op(with_zeros) == FormalChar() for op in ops)


def _four_kinds():
    """(name, make, a key of its terms) for a character built from terms, a
    conversion result before and after its first read, and a lookup's
    answer; make builds a fresh one, and the key is read off another."""
    built = lambda: FormalChar(
        {(symbol(NABLA, (1, 1, 1)), W(0, 1, -1)): 2, (symbol(NABLA, (1, 1, 1)), W("1/2", 1, -1)): -1}
    )
    half = lookup_tilting_pe3(W("1/2", "3/2", "5/2"))
    unread = lambda: nabla_sum_to_delta_sum(half)

    def read():
        result = unread()
        result.terms
        return result

    lookup = lambda: lookup_tilting_pe3(W(0, 1, -1))
    return [(name, make, next(iter(make().terms))) for name, make in (
        ("built", built), ("unread", unread), ("read", read), ("lookup", lookup)
    )]


_ANSWERS = {
    "==": lambda chi: chi,
    "hash": hash,
    "repr": repr,
    "support": FormalChar.support,
    "json": char_to_json,
    "to delta": lambda chi: _outcome(nabla_sum_to_delta_sum, chi),
    "to nabla": lambda chi: _outcome(delta_sum_to_nabla_sum, chi),
    "theta": lambda chi: [
        _outcome(lambda c, a=a: theta_char(a, c), chi)
        for a in sorted({v for _, lam in chi.terms for v in lam})
    ],
}


_KINDS = _four_kinds()


@pytest.mark.parametrize("name,make,key", _KINDS, ids=[kind[0] for kind in _KINDS])
def test_no_write_reaches_a_character(name, make, key):
    """Setting a coefficient to 0 or 5, or deleting a term, raises
    TypeError on every kind of character, which then answers every read
    and operation as its fresh copy does."""
    chi = make()
    assert _unread(chi) == (name == "unread")
    for c in (0, 5):
        with pytest.raises(TypeError):
            chi.terms[key] = c
    with pytest.raises(TypeError):
        del chi.terms[key]
    fresh = FormalChar(chi.terms.copy())
    assert chi.terms[key] and 0 not in chi.terms.values()
    assert [answer for answer, read in _ANSWERS.items() if read(chi) != read(fresh)] == []


@pytest.mark.parametrize("name,make,key", _KINDS, ids=[kind[0] for kind in _KINDS])
def test_characters_pickle_and_copy(name, make, key):
    chi = make()
    for twin in (pickle.loads(pickle.dumps(chi)), copy.deepcopy(chi), copy.copy(chi)):
        assert twin == chi and repr(twin) == repr(chi)
        with pytest.raises(TypeError):
            twin.terms[key] = 0


def test_results_round_trip_through_json():
    chi = lookup_tilting_pe3(W("1/2", "3/2", "5/2"))
    for result in (nabla_sum_to_delta_sum(chi), theta_char(Fraction(1, 2), chi)):
        doc = char_to_json(result)
        assert char_from_json(doc) == result
        assert theta_char(Fraction(3, 2), char_from_json(doc)) == theta_char(Fraction(3, 2), result)
