"""Formal character algebra, basis conversions, and translation rules."""

import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from conftest import B2, B3, B4, W, del_sum, formal, nab_sum, normalised
from pericat import characters
from pericat.characters import (
    DELTA,
    NABLA,
    BasisSymbol,
    FormalChar,
    MixedBasis,
    NonTerminating,
    char_from_json,
    char_to_json,
    char_sum,
    delta,
    delta_sum_to_nabla_sum,
    nabla,
    nabla_sum_to_delta_sum,
    shift_by_omega,
    theta_char,
)
from pericat.linkage import block_label
from pericat.pe3.tables import lookup_tilting_pe3
from pericat.tilting import weakly_typical_tilting
from pericat.weights import (
    borel,
    degree,
    exact,
    is_p_dominant,
    require_p_dominant,
    scale,
    shift,
    unscale,
    weight,
)


def tensor_natural_delta(lam, p=None):
    """The Pieri reference for theta: the standard-flag character of
    Delta^p_lam tensored with the natural module, sum over i of
    Delta_{lam + e_i} + Delta_{lam - e_i}, keeping weights in Sigma_p^+."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    out = {}
    for i in range(len(lam)):
        for sign in (1, -1):
            mu = tuple(x + sign if j == i else x for j, x in enumerate(lam))
            if is_p_dominant(mu, p):
                out[mu] = 1
    return FormalChar(DELTA, p, out)


def test_linear_algebra_basics():
    chi = delta(W(0, 1)) + delta(W(0, 1)) - 2 * delta(W(0, 1))
    assert chi.is_zero()
    assert delta(W(1, 2)).coeff(DELTA, W(1, 2)) == 1
    chi = 3 * delta(W(1, 2))
    assert chi.coeff(DELTA, W(1, 2)) == 3
    assert chi.coeff(NABLA, W(1, 2)) == 0
    assert (chi - chi).is_zero()
    # a sum holds one basis: Delta and Nabla, or two parabolics, do not add
    with pytest.raises(MixedBasis):
        chi + nabla(W(1, 2))
    with pytest.raises(MixedBasis):
        delta(W(2, 1, 0), (2, 1)) - delta(W(2, 1, 0))


def test_nabla_to_delta():
    # at the Borel, Delta(p) is Delta(borel): the conversion is the expansion
    chi = nabla_sum_to_delta_sum(nabla(W(0, 1)))
    assert chi == del_sum((0, 1), (-2, 1), (0, -1), (-2, -1))
    chi1 = nabla_sum_to_delta_sum(nabla(W(3)))
    assert chi1 == del_sum((3,), (1,))
    chi3 = nabla_sum_to_delta_sum(nabla(W(0, 1, 5)))
    assert len(chi3.terms) == 8
    base = degree(W(0, 1, 5))
    assert {degree(mu) for mu in chi3.support()} <= {
        base - 2 * k for k in range(4)
    }


def test_delta_sum_to_nabla_sum_round_trip():
    chi = nabla_sum_to_delta_sum(nabla(W(0, 1)))
    assert delta_sum_to_nabla_sum(chi) == nabla(W(0, 1))
    # A tilting character in the Delta basis comes back to its Nabla form.
    tilt = nab_sum((0, 1, 0), (0, 0, 1), (-1, 0, 0))
    expanded = char_sum(nabla_sum_to_delta_sum(nabla(mu)) for mu in tilt.support())
    assert delta_sum_to_nabla_sum(expanded) == tilt
    # Round trip via the packaged inverse.
    assert delta_sum_to_nabla_sum(nabla_sum_to_delta_sum(tilt)) == tilt


def test_delta_sum_to_nabla_sum_diverges():
    # a lone Delta lies below its own floor, 2n above it: the greedy stops
    # before its first level
    with pytest.raises(NonTerminating, match="no finite costandard sum exists") as info:
        delta_sum_to_nabla_sum(delta(W(0)))
    assert info.value.remainder == delta(W(0))
    with pytest.raises(NonTerminating):
        delta_sum_to_nabla_sum(nabla_sum_to_delta_sum(nabla(W(0, 1, 5))) + delta(W(-9, -9, -9)))


def _wide_character(n):
    """Characters whose Delta forms span more than 64 degrees: nabla_0 +
    nabla_2 + ... + nabla_138 at n = 1, and the table row T_{0,1,-1} shifted
    by k omega and summed over k < 22 at n = 3 (132 costandard terms)."""
    if n == 1:
        return char_sum(nabla(W(k)) for k in range(0, 139, 2))
    tilt = lookup_tilting_pe3(W(0, 1, -1))
    return char_sum(shift_by_omega(tilt, k) for k in range(22))


@pytest.mark.parametrize("n, terms", [(1, 70), (3, 132)])
def test_wide_characters_round_trip(n, terms):
    nab = _wide_character(n)
    assert len(nab.terms) == terms
    dlt = nabla_sum_to_delta_sum(nab)
    expansion = reference.borel_expansion
    assert expansion(reference.terms(dlt)) == expansion(reference.terms(nab))
    assert len({degree(mu) for mu in dlt.support()}) > 64
    assert delta_sum_to_nabla_sum(dlt) == nab


def test_theta_delta_fixtures():
    chi = theta_char(-1, delta(W(-1, 1, 5)))
    assert chi == del_sum((0, 1, 5), (-2, 1, 5))
    assert theta_char(7, delta(W(0, 1, 2))).is_zero()
    chi2 = theta_char(0, delta(W(0, 0)))
    assert chi2 == del_sum((1, 0), (-1, 0), (0, 1), (0, -1))


def test_theta_nabla_fixtures():
    chi = theta_char(-1, nabla(W(-1, 1, 1)))
    assert chi == nab_sum((0, 1, 1), (-1, 0, 1), (-1, 1, 0))
    chi2 = theta_char(-1, nabla(W(-1, 1, 5)))
    assert chi2 == nab_sum((0, 1, 5), (-1, 0, 5))
    assert theta_char(5, nabla(W(0, 1, 2))).is_zero()


def test_theta_char_fixtures():
    src = nab_sum((0, -1, 1), (-1, 0, 1), (-1, -1, 0))
    doubled = theta_char(-1, src)
    assert doubled == 2 * nab_sum((0, 0, 1), (0, -1, 0), (-1, 0, 0))
    six = nab_sum(
        (0, 1, -1), (0, -1, 1), (-1, 1, 0), (-1, 0, 1), (-1, 0, -1), (-1, -1, 0)
    )
    out = theta_char(-1, six)
    expected = (
        2 * nab_sum((0, 1, 0), (0, 0, -1), (0, 0, 1), (0, -1, 0))
        + 4 * nabla(W(-1, 0, 0))
    )
    assert out == expected
    assert theta_char(-1, FormalChar()).is_zero()


def test_theta_char_rejects_bad_bases():
    with pytest.raises(MixedBasis):
        theta_char(0, delta(W(0, 1)) + nabla(W(0, 1)))
    # a character in any other basis cannot be built
    for kind in ("simple", "kac", "even_verma", "even_simple", "levi_simple"):
        with pytest.raises(ValueError, match=f"unknown basis kind '{kind}'"):
            FormalChar(kind, B2, {W(0, 1): 1})


def test_shift_by_omega():
    tilt = nab_sum((-1, 0, 1), (-1, -1, 0), (-2, -1, 1))
    shifted = shift_by_omega(tilt, 1)
    assert shifted == nab_sum((0, 1, 2), (0, 0, 1), (-1, 0, 2))
    assert shift_by_omega(tilt, 0) == tilt
    assert shift_by_omega(shift_by_omega(tilt, Fraction(1, 2)), Fraction(-1, 2)) == tilt


@pytest.mark.parametrize("k", [0.0, False, 0.5, True], ids=repr)
def test_shift_by_omega_refuses_an_inexact_shift(k):
    """A zero float or bool is refused as a nonzero one is, not read as 0."""
    with pytest.raises(TypeError, match=f"weight coordinate {k!r} is not exact"):
        shift_by_omega(nab_sum((-1, 0, 1)), k)


def test_shift_commutes_with_theta_after_shifting_a():
    chi = nab_sum((0, 1, -1), (-1, 0, 1))
    for a in (-1, 0, 1):
        for k in (1, -2, Fraction(1, 2)):
            left = theta_char(a, shift_by_omega(chi, k))
            right = shift_by_omega(theta_char(a - k, chi), k)
            assert left == right


def test_tensor_natural_delta():
    chi = tensor_natural_delta(W(0, 1))
    assert chi == del_sum((1, 1), (0, 2), (-1, 1), (0, 0))
    # Sum of theta slices over all relevant eigenvalues reconstructs the
    # full Pieri expansion.
    for lam in (W(0, 1), W(2, 2), W(0, 1, 5)):
        values = {c for c in lam} | {c - 2 for c in lam}
        rebuilt = char_sum(theta_char(a, delta(lam)) for a in values)
        assert rebuilt == tensor_natural_delta(lam)


def test_theta_slices_partition_nabla_pieri():
    # Same reconstruction on the nabla side: theta_a cuts the coinduced
    # Pieri expansion into eigenvalue slices.
    for lam in (W(0, 1), W(-1, 1, 5), W(2, 0, 1)):
        values = {c for c in lam} | {c - 2 for c in lam}
        rebuilt = char_sum(theta_char(a, nabla(lam)) for a in values)
        expected = char_sum(
            nabla(mu)
            for mu in _pieri_neighbors(lam)
        )
        assert rebuilt == expected


def _pieri_neighbors(lam):
    out = []
    for i in range(len(lam)):
        for s in (1, -1):
            mu = list(lam)
            mu[i] += s
            out.append(tuple(mu))
    return out


def _expand(chi):
    """The reference's Borel expansion of a FormalChar, as a FormalChar."""
    return formal(reference.borel_expansion(reference.terms(chi)))


def test_expand_parabolic():
    chi = _expand(delta(W(2, 1, 0), (2, 1)))
    assert chi == delta(W(2, 1, 0)) - delta(W(1, 2, 0))
    assert _expand(delta(W(2, 1, 0), B3)) == delta(W(2, 1, 0))
    chi_n = _expand(nabla(W(2, 1, 0), (2, 1)))
    assert chi_n == _expand(nabla(W(2, 1, 0))) - _expand(nabla(W(1, 2, 0)))
    # the Delta(p) form is the p-dominant part of the expansion
    want = reference.delta_form(reference.terms(nabla(W(2, 1, 0), (2, 1))))
    assert reference.terms(nabla_sum_to_delta_sum(nabla(W(2, 1, 0), (2, 1)))) == want
    with pytest.raises(ValueError):
        _expand(delta(W(0, 1, 2), (2, 1)))


def test_zero_character_converts_to_zero():
    # Like theta_char, both conversions map 0 to 0 rather than asking the
    # empty character for its basis.
    for convert in (nabla_sum_to_delta_sum, delta_sum_to_nabla_sum):
        assert convert(FormalChar()).is_zero()


def test_parabolic_pieri_multiplicity_preservation():
    # For mu in Sigma_p^+ the parabolic Pieri coefficient matches the full
    # one computed through the Borel expansion.
    p = (2, 1)
    lam = W(2, 0, 1)
    full = _expand(tensor_natural_delta(lam, p))
    borel_side = char_sum(
        c * tensor_natural_delta(mu) for (_, mu), c in _expand(delta(lam, p)).terms.items()
    )
    assert full == borel_side


def test_json_round_trip():
    chi = 2 * nabla(W(0, 1, -2)) + nabla(W(1, 1, 1))
    doc = char_to_json(chi)
    assert doc["basis"] == "nabla"
    assert char_from_json(doc) == chi
    # Parabolic payloads round trip too.
    chi_p = 3 * delta(W(1, 0, 5), (2, 1))
    assert char_from_json(char_to_json(chi_p)) == chi_p
    empty = char_to_json(FormalChar(), empty_basis=NABLA)
    assert empty["terms"] == []
    assert char_from_json(empty).is_zero()


def test_json_fixture_shape():
    doc = char_to_json(nabla(W(0, 1, -2)))
    assert doc == {
        "basis": "nabla",
        "parabolic": [1, 1, 1],
        "terms": [{"weight": ["0", "1", "-2"], "coeff": 1}],
    }


_coords = st.integers(min_value=-4, max_value=4)
_weights2 = st.tuples(_coords, _coords).map(lambda t: weight(*t))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(_weights2, st.integers(-3, 3)), max_size=6))
def test_char_sum_is_order_independent(pairs):
    chars = [c * nabla(lam) for lam, c in pairs]
    total = char_sum(chars)
    total_rev = char_sum(reversed(chars))
    assert total == total_rev
    for lam in {lam for lam, _ in pairs}:
        assert total.coeff(NABLA, lam) == sum(c for mu, c in pairs if mu == lam)


@settings(max_examples=60, deadline=None)
@given(_weights2, st.integers(-5, 5))
def test_theta_linearity(lam, a):
    chi = nabla(lam)
    assert theta_char(a, 3 * chi) == 3 * theta_char(a, chi)
    other = nabla(weight(lam[0] + 1, lam[1] - 1))
    assert theta_char(a, chi + other) == theta_char(a, chi) + theta_char(a, other)


@settings(max_examples=40, deadline=None)
@given(_weights2)
def test_nabla_to_delta_always_eight_fourth(lam):
    chi = nabla_sum_to_delta_sum(nabla(lam))  # the Borel expansion, at the Borel
    assert sum(chi.terms.values()) == 4  # 2^n terms at n=2, coefficient 1
    assert chi.coeff(DELTA, lam) == 1


@settings(max_examples=40, deadline=None)
@given(_weights2, st.integers(-4, 4))
def test_theta_consistency_property(lam, a):
    # Translating then expanding equals expanding then translating; at the
    # Borel the conversion to Delta is the expansion.
    left = nabla_sum_to_delta_sum(theta_char(a, nabla(lam)))
    right = theta_char(a, nabla_sum_to_delta_sum(nabla(lam)))
    assert left == right


def test_theta_outputs_keep_integral_coordinates_int():
    cases = (
        (delta, -1, W(-1, 1, 5), B3),
        (nabla, Fraction(-1), W(-1, 1, 1), B3),
        (delta, Fraction(1, 2), W("1/2", "3/2", 0), B3),
        (nabla, "-3/2", W("1/2", "-3/2", 2), B3),
        (delta, Fraction(4, 2), W(2, 0, 2), (2, 1)),
    )
    for kind, a, lam, p in cases:
        image = theta_char(a, kind(lam, p))
        assert not image.is_zero(), (kind.__name__, a, lam)
        assert all(normalised(mu) for mu in image.support()), image
    image = theta_char(Fraction(-1), nabla(W(-1, 1, 1)) + nabla(W(-1, "1/2", 1)))
    assert all(normalised(mu) for mu in image.support()), image


@st.composite
def _raw_weight(draw, p):
    """Raw Fraction coordinates, each integral or half-integral; the Levi
    pair of (2,1) differs by a positive integer, so the weight is p-dominant."""
    lam = [
        Fraction(draw(st.integers(-3, 3))) + draw(st.sampled_from((0, Fraction(1, 2))))
        for _ in range(3)
    ]
    if p == (2, 1):
        lam[0] = lam[1] + draw(st.integers(1, 3))
    return tuple(lam)


def _outcome(convert, *args):
    try:
        return convert(*args)
    except (ValueError, NonTerminating, reference.NoFiniteSum) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "remainder", None)


def _same_result(left, right):
    assert left == right
    if isinstance(right, FormalChar):
        assert char_to_json(left) == char_to_json(right)
        assert all(normalised(mu) for mu in right.support()), right


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_raw_fraction_input_matches_normalised(data):
    # Bypassing weight() leaves integral Fractions in the tuples; every
    # engine path must give the same characters and JSON as from the
    # normalised weights.
    p = data.draw(st.sampled_from((B3, (2, 1))))
    terms = data.draw(
        st.lists(st.tuples(_raw_weight(p), st.integers(1, 2)), min_size=1, max_size=3)
    )
    raw = FormalChar(NABLA, p, {lam: c for lam, c in terms})
    norm = FormalChar(NABLA, p, {weight(*lam): c for lam, c in terms})
    # the character normalises the raw coordinates where it is built
    assert all(normalised(mu) for mu in raw.support())
    assert raw == norm and char_to_json(raw) == char_to_json(norm)

    d_norm = _outcome(nabla_sum_to_delta_sum, norm)
    _same_result(_outcome(nabla_sum_to_delta_sum, raw), d_norm)
    if isinstance(d_norm, FormalChar):
        d_raw = FormalChar(DELTA, p, {tuple(Fraction(c) for c in lam): k for lam, k in d_norm.items()})
        _same_result(
            _outcome(delta_sum_to_nabla_sum, d_raw),
            _outcome(delta_sum_to_nabla_sum, d_norm),
        )
    for a in sorted({c for lam, _ in terms for c in lam}):
        _same_result(theta_char(a, raw), theta_char(exact(a), norm))
    for lam, _ in terms:
        label, norm_label = block_label(lam), block_label(weight(*lam))
        assert label == norm_label
        assert [tuple(map(str, rec)) for rec in label] == [
            tuple(map(str, rec)) for rec in norm_label
        ]


_OFFSETS = (0, Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))
_PARABOLICS = (B3, (2, 1), B4, (2, 2), (3, 1))


@st.composite
def _p_dominant_weight(draw, p):
    """Integral, half- or third-integral coordinates; each Levi block shares
    one offset and decreases by positive integers."""
    lam = []
    for size in p:
        off = draw(st.sampled_from(_OFFSETS))
        block = [draw(st.integers(-2, 3))]
        for _ in range(size - 1):
            block.append(block[-1] - draw(st.integers(1, 2)))
        lam += [off + c for c in block]
    return weight(*lam)


@st.composite
def _signed_char(draw, kind, p):
    terms = draw(
        st.lists(
            st.tuples(_p_dominant_weight(p), st.sampled_from((-2, -1, 1, 3))),
            min_size=1,
            max_size=4,
        )
    )
    chi = FormalChar()
    for lam, c in terms:
        chi = chi + FormalChar(kind, p, {lam: c})
    return chi


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_conversions_match_the_reference(data):
    p = data.draw(st.sampled_from(_PARABOLICS))
    nab = data.draw(_signed_char(NABLA, p))
    if nab.is_zero():
        return
    d_form = nabla_sum_to_delta_sum(nab)
    assert reference.terms(d_form) == reference.delta_form(reference.terms(nab))
    # equality cannot tell 2 from Fraction(2, 1): every coordinate is
    # checked to come back normalised, also inside a NonTerminating remainder
    assert all(normalised(mu) for mu in d_form.support())
    # the Delta form converts back; one extra Delta makes it, as a rule, no
    # finite Nabla sum, and then the reference must not clear either
    if data.draw(st.booleans()):
        extra = data.draw(st.sampled_from((-2, -1, 1, 3))) * delta(data.draw(_p_dominant_weight(p)), p)
        dlt = d_form + extra
    else:
        dlt = d_form
    if not dlt.is_zero():
        got = _nabla_outcomes_agree(dlt)
        assert all(normalised(mu) for mu in _result_char(got).support())
        if dlt == d_form:
            assert got == nab
    alphabet = sorted({c for mu in nab.support() for c in mu} | {Fraction(1, 2)})
    dlt = formal(reference.borel_expansion(reference.terms(nab)))
    draws = data.draw(st.lists(st.sampled_from(alphabet), max_size=3))
    for chi in (nab, dlt):
        for a, want in zip(draws, reference.theta(draws, reference.terms(chi))):
            image = theta_char(a, chi)
            assert reference.terms(image) == want
            assert all(normalised(mu) for mu in image.support())


def _nabla_outcomes_agree(dlt):
    """delta_sum_to_nabla_sum(dlt) against the reference's Nabla form: the
    same character, or no finite Nabla sum on both sides."""
    got = _outcome(delta_sum_to_nabla_sum, dlt)
    ref = _outcome(reference.nabla_form, reference.terms(dlt))
    if isinstance(got, FormalChar):
        assert reference.terms(got) == ref
    else:
        assert got[0] == "NonTerminating" and ref[0] == "NoFiniteSum", (got, ref)
    return got


def _result_char(outcome):
    """The character an _outcome carries: the result, or the remainder."""
    return outcome if isinstance(outcome, FormalChar) else outcome[2] or FormalChar()


@pytest.mark.parametrize(
    "a, rows, p",
    [
        # a's denominator 3 is in no coordinate: the scale is 6, and a wrong
        # rounding of a would meet the integral coordinates
        (Fraction(1, 3), [("1/2", 0, "-1/2"), (0, 1, "1/2"), ("3/2", "1/2", 0)], B3),
        (Fraction(1, 3), [(2, 1, "1/2"), ("5/2", "3/2", 0)], (2, 1)),
        # a's denominator 2 is in no coordinate of a third-integral character
        (Fraction(1, 2), [("1/3", 0, 1), ("4/3", "1/3", "2/3"), (1, 0, "-2/3")], B3),
        (Fraction(1, 2), [("4/3", "1/3", "-2/3", "-5/3"), (1, 0, 1, 0)], (2, 2)),
        # a shares its denominator with some of the coordinates only
        (Fraction(1, 3), [("1/3", "-2/3", "1/2"), ("4/3", "1/3", "-3/2")], (2, 1)),
        (Fraction(-5, 3), [("1/3", "-2/3", "1/2"), ("4/3", "1/3", "-3/2")], (2, 1)),
    ],
)
def test_theta_with_a_denominator_of_its_own(a, rows, p):
    for kind in (DELTA, NABLA):
        chi = FormalChar(kind, p, {weight(*row): 1 for row in rows})
        image = theta_char(a, chi)
        assert reference.terms(image) == reference.theta([a], reference.terms(chi))[0]
        assert all(normalised(mu) for mu in image.support())


_KERNELS = [
    (nabla_sum_to_delta_sum, NABLA),
    (delta_sum_to_nabla_sum, DELTA),
    (lambda chi: theta_char(0, chi), NABLA),
    (functools.partial(theta_char, 0), DELTA),
    (functools.partial(theta_char, Fraction(1, 2)), NABLA),
    (lambda chi: theta_char(Fraction(1, 2), chi), DELTA),
]


@pytest.mark.parametrize("convert, kind", _KERNELS)
@pytest.mark.parametrize("p", [B2, (2,)])
@pytest.mark.parametrize(
    "weights", [[(1.5, 0)], [(Fraction(1, 2), 0), (1.5, 0)]], ids=["float", "float-after-fraction"]
)
def test_kernel_refuses_float_coordinates(convert, kind, p, weights):
    # every weight is checked, also one past a weight that holds a Fraction,
    # where the character is built: no kernel sees it
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        convert(FormalChar(kind, p, dict.fromkeys(weights, 1)))
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        scale(weights)


@pytest.mark.parametrize("convert, kind", _KERNELS)
def test_kernel_refuses_bool_coordinates(convert, kind):
    with pytest.raises(TypeError, match="weight coordinate True is not exact"):
        convert(FormalChar(kind, (2,), {(True, 0): 1}))


@pytest.mark.parametrize("parabolic", [(1.0, 2.0), (True, 2)], ids=["float", "bool"])
def test_float_or_bool_parabolic_part_is_a_typed_error(parabolic):
    # (1.0, 2.0) and (True, 2) equal (1, 2) as cache keys: after a call
    # with (1, 2), a weights memo would serve them its entry
    assert not nabla_sum_to_delta_sum(nabla((2, 1, 0), (1, 2))).is_zero()
    builds = [
        delta,
        nabla,
        lambda lam, p: FormalChar(NABLA, p, {lam: 1, shift(lam, 1): 2}),
        lambda lam, p: nabla_sum_to_delta_sum(nabla(lam, p)),
    ]
    for build in builds:
        with pytest.raises(TypeError, match=re.escape(f"parabolic {parabolic!r} has a part")):
            build((2, 1, 0), parabolic)
    # a character is built from its kind, parabolic and weights only: a
    # (BasisSymbol, weight) key is no way past the check
    with pytest.raises(ValueError, match="unknown basis kind"):
        FormalChar({(BasisSymbol(NABLA, parabolic), (2, 1, 0)): 1})


def test_raw_fraction_blocks_do_not_reach_normalised_results():
    # the kappa-rule memoises per Levi block; a block first met with raw
    # integral Fractions must not hand them to a later call with ints
    p = (2, 1)
    raw = FormalChar(NABLA, p, {(Fraction(41), Fraction(40), Fraction(43)): 1})
    norm = nabla(W(41, 40, 43), p)
    assert nabla_sum_to_delta_sum(raw) == nabla_sum_to_delta_sum(norm)
    assert all(normalised(mu) for mu in nabla_sum_to_delta_sum(norm).support())
    back = delta_sum_to_nabla_sum(nabla_sum_to_delta_sum(norm))
    assert back == norm and all(normalised(mu) for mu in back.support())


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_flag_terms_are_the_p_dominant_borel_part(data):
    # A character's Delta(p) coefficients are the p-dominant coefficients of
    # its Borel expansion.  Only kappa = 0 keeps the degree, so subtracting a
    # leader's costandard expansion clears it and leaves the rest of its
    # degree level alone: every Delta -> Nabla level clears.
    p = data.draw(st.sampled_from(_PARABOLICS))
    lam = data.draw(_p_dominant_weight(p))
    d, (x,) = scale([lam])  # the flag terms are on coordinates scaled by d
    got = {}
    for mu, c, drop in characters._flag_terms(x, p, d):
        mu = tuple(Fraction(v, d) for v in mu)
        assert is_p_dominant(mu, p) and drop == d * (degree(lam) - degree(mu))
        got[mu] = got.get(mu, 0) + c
    ref = reference.borel_expansion({(NABLA, p, lam): 1})
    assert {mu: c for mu, c in got.items() if c} == {
        mu: c for (_, _, mu), c in ref.items() if reference.is_p_dominant(mu, p)
    }
    top = [t for t in characters._flag_terms(x, p, d) if t[2] == 0]
    assert top == [(x, 1, 0)]
    dlt = data.draw(_signed_char(DELTA, p))
    if not dlt.is_zero():
        _nabla_outcomes_agree(dlt)
        # a Delta(p) character is its own Delta(p) form, row by degree
        q, e, rows = characters._delta_rows(dlt, DELTA)
        assert q == p
        assert all(sum(x) == deg for deg, row in rows.items() for x in row)
        assert dict(kv for row in rows.values() for kv in unscale(row, e)) == {
            mu: c for (_, mu), c in dlt.terms.items()
        }


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_delta_form_ends_2n_below_the_lowest_nabla(data):
    # kappa = (2,..,2) is the only drop of 2n, and it keeps the order of x:
    # the lowest Nabla terms leave their shifts by -2(1,..,1) uncancelled,
    # which is why delta_sum_to_nabla_sum may stop below its floor
    p = data.draw(st.sampled_from(_PARABOLICS))
    nab = data.draw(_signed_char(NABLA, p))
    if nab.is_zero():
        return
    n = sum(p)
    low = min(degree(mu) for mu in nab.support())
    dlt = nabla_sum_to_delta_sum(nab)
    assert min(degree(mu) for mu in dlt.support()) == low - 2 * n
    assert {mu: c for (_, mu), c in dlt.terms.items() if degree(mu) == low - 2 * n} == {
        shift(lam, -2): c for (_, lam), c in nab.terms.items() if degree(lam) == low
    }


# --- FormalChar invariants --------------------------------------------------------


def test_no_zero_coefficient_is_stored():
    assert FormalChar(NABLA, B3, {W(0, 1, 2): 0}).terms == {}
    chi = nab_sum((0, 1, -1), (-1, 0, 1))
    assert (chi - chi).terms == {}
    assert (0 * chi).terms == {}
    # theta_{-1} sends both terms to nabla_{0,0,5}, which cancels
    assert theta_char(-1, nabla(W(-1, 0, 5)) - nabla(W(1, 0, 5))).terms == {}
    # the kappa shift (2, 0) repeats the Levi block (2, 0) of (2,0,5) at (0,0,5)
    converted = nabla_sum_to_delta_sum(nabla(W(2, 0, 5), (2, 1)))
    assert 0 not in converted.terms.values()
    assert converted.coeff(DELTA, W(0, 0, 5), (2, 1)) == 0
    for tilt in (weakly_typical_tilting(W(-1, 1, -2)), weakly_typical_tilting(W(1, -2, 0), (2, 1))):
        dlt = nabla_sum_to_delta_sum(tilt)
        for out in (dlt, delta_sum_to_nabla_sum(dlt)):
            assert out.terms and 0 not in out.terms.values()


def _fresh_results(chi):
    """Each converter applied to chi, as (name, thunk) pairs."""
    return [
        ("nabla_sum_to_delta_sum", lambda: nabla_sum_to_delta_sum(chi)),
        ("theta_char", lambda: theta_char(-1, chi)),
        ("theta_char zero", lambda: theta_char(7, chi)),
        ("shift_by_omega", lambda: shift_by_omega(chi, 0)),
        ("char_sum", lambda: char_sum([chi])),
        ("add", lambda: chi + FormalChar()),
        ("theta_char delta zero", lambda: theta_char(7, delta(W(0, 1, 2)))),
        ("weakly_typical_tilting", lambda: weakly_typical_tilting(W(-1, 1, -2))),
    ]


def _refuse_writes(chi, junk):
    """Every write into chi.terms raises TypeError; its view has no
    mutating method."""
    key = next(iter(chi.terms), junk)
    for k, c in ((junk, 5), (key, 0), (key, 5)):
        with pytest.raises(TypeError):
            chi.terms[k] = c
    with pytest.raises(TypeError):
        del chi.terms[key]
    mutators = ("pop", "popitem", "clear", "update", "setdefault", "__setitem__", "__delitem__")
    assert not [m for m in mutators if hasattr(chi.terms, m)]


def test_results_refuse_writes():
    chi = nab_sum((0, 1, -1), (0, -1, 1), (-1, 1, 0), (-1, 0, 1), (-1, 0, -1), (-1, -1, 0))
    before = chi.terms.copy()
    junk = (BasisSymbol(DELTA, B3), W(9, 9, 9))
    for name, make in _fresh_results(chi):
        first = make()
        snapshot = first.terms.copy()
        _refuse_writes(first, junk)
        assert first.terms == snapshot, name
        assert make().terms == snapshot, name
        assert chi.terms == before, name
    assert shift_by_omega(chi, 0) is chi  # a value, so the twist by 0 shares it
    # theta_char(0, ...) of the zero character refuses writes too
    zero = FormalChar()
    image = theta_char(0, zero)
    _refuse_writes(image, junk)
    assert zero.terms == {} and theta_char(0, zero).is_zero()
