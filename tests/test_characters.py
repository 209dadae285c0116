"""Formal character algebra, basis conversions, and translation rules."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import B3, W, del_sum, nab_sum, normalised
from pericat.characters import (
    DELTA,
    NABLA,
    SIMPLE,
    FormalChar,
    MixedBasis,
    NonTerminating,
    SimpleBasis,
    ZERO_CHAR,
    char_from_json,
    char_to_json,
    char_sum,
    delta,
    delta_sum_to_nabla_sum,
    expand_parabolic_delta,
    expand_parabolic_nabla,
    grade_support,
    nabla,
    nabla_sum_to_delta_sum,
    nabla_to_delta,
    shift_by_omega,
    symbol,
    tensor_natural_delta,
    theta_char,
    theta_delta,
    theta_nabla,
    to_borel_delta,
)
from pericat.linkage import block_label
from pericat.weights import degree, exact, weight


def test_linear_algebra_basics():
    chi = delta(W(0, 1)) + delta(W(0, 1)) - 2 * delta(W(0, 1))
    assert chi.is_zero()
    assert delta(W(1, 2)).coeff(DELTA, W(1, 2)) == 1
    mixed = 3 * delta(W(1, 2)) + nabla(W(1, 2))
    assert mixed.coeff(DELTA, W(1, 2)) == 3
    assert mixed.coeff(NABLA, W(1, 2)) == 1
    assert (mixed - mixed).is_zero()
    with pytest.raises(MixedBasis):
        mixed.sole_basis()


def test_nabla_to_delta():
    chi = nabla_to_delta(W(0, 1))
    assert chi == del_sum((0, 1), (-2, 1), (0, -1), (-2, -1))
    chi1 = nabla_to_delta(W(3))
    assert chi1 == del_sum((3,), (1,))
    chi3 = nabla_to_delta(W(0, 1, 5))
    assert len(chi3.terms) == 8
    base = degree(W(0, 1, 5))
    assert {degree(mu) for mu in chi3.support()} <= {
        base - 2 * k for k in range(4)
    }


def test_delta_sum_to_nabla_sum_round_trip():
    chi = nabla_to_delta(W(0, 1))
    assert delta_sum_to_nabla_sum(chi) == nabla(W(0, 1))
    # A tilting character in the Delta basis comes back to its Nabla form.
    tilt = nab_sum((0, 1, 0), (0, 0, 1), (-1, 0, 0))
    expanded = char_sum(nabla_to_delta(mu) for mu in tilt.support())
    assert delta_sum_to_nabla_sum(expanded) == tilt
    # Round trip via the packaged inverse.
    assert delta_sum_to_nabla_sum(nabla_sum_to_delta_sum(tilt)) == tilt


def test_delta_sum_to_nabla_sum_diverges():
    with pytest.raises(NonTerminating):
        delta_sum_to_nabla_sum(delta(W(0)), depth=12)


def test_theta_delta_fixtures():
    chi = theta_delta(-1, W(-1, 1, 5))
    assert chi == del_sum((0, 1, 5), (-2, 1, 5))
    assert theta_delta(7, W(0, 1, 2)).is_zero()
    chi2 = theta_delta(0, W(0, 0))
    assert chi2 == del_sum((1, 0), (-1, 0), (0, 1), (0, -1))


def test_theta_nabla_fixtures():
    chi = theta_nabla(-1, W(-1, 1, 1))
    assert chi == nab_sum((0, 1, 1), (-1, 0, 1), (-1, 1, 0))
    chi2 = theta_nabla(-1, W(-1, 1, 5))
    assert chi2 == nab_sum((0, 1, 5), (-1, 0, 5))
    assert theta_nabla(5, W(0, 1, 2)).is_zero()


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
    assert theta_char(-1, ZERO_CHAR).is_zero()


def test_theta_char_rejects_bad_bases():
    with pytest.raises(MixedBasis):
        theta_char(0, delta(W(0, 1)) + nabla(W(0, 1)))
    simple_char = FormalChar.single(SIMPLE, W(0, 1))
    with pytest.raises(SimpleBasis):
        theta_char(0, simple_char)


def test_shift_by_omega():
    tilt = nab_sum((-1, 0, 1), (-1, -1, 0), (-2, -1, 1))
    shifted = shift_by_omega(tilt, 1)
    assert shifted == nab_sum((0, 1, 2), (0, 0, 1), (-1, 0, 2))
    assert shift_by_omega(tilt, 0) == tilt
    assert shift_by_omega(shift_by_omega(tilt, Fraction(1, 2)), Fraction(-1, 2)) == tilt


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
        rebuilt = char_sum(theta_delta(a, lam) for a in values)
        assert rebuilt == tensor_natural_delta(lam)


def test_theta_slices_partition_nabla_pieri():
    # Same reconstruction on the nabla side: theta_a cuts the coinduced
    # Pieri expansion into eigenvalue slices.
    for lam in (W(0, 1), W(-1, 1, 5), W(2, 0, 1)):
        values = {c for c in lam} | {c - 2 for c in lam}
        rebuilt = char_sum(theta_nabla(a, lam) for a in values)
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


def test_expand_parabolic():
    chi = expand_parabolic_delta(W(2, 1, 0), (2, 1))
    assert chi == delta(W(2, 1, 0)) - delta(W(1, 2, 0))
    assert expand_parabolic_delta(W(2, 1, 0), B3) == delta(W(2, 1, 0))
    chi_n = expand_parabolic_nabla(W(2, 1, 0), (2, 1))
    assert chi_n == nabla(W(2, 1, 0)) - nabla(W(1, 2, 0))
    with pytest.raises(ValueError):
        expand_parabolic_delta(W(0, 1, 2), (2, 1))


def test_parabolic_pieri_multiplicity_preservation():
    # For mu in Sigma_p^+ the parabolic Pieri coefficient matches the full
    # one computed through the Borel expansion.
    p = (2, 1)
    lam = W(2, 0, 1)
    full = to_borel_delta(tensor_natural_delta(lam, p))
    borel_side = char_sum(
        c * tensor_natural_delta(mu)
        for (_, mu), c in expand_parabolic_delta(lam, p).terms.items()
    )
    assert full == borel_side


def test_grade_support():
    # Degrees are normalized so rho sits at 0: (0,1) has degree 0 at n=2
    # and the kappa shifts step down by 2.
    graded = grade_support(nabla_to_delta(W(0, 1)))
    sizes = {d: len(chi.terms) for d, chi in graded.items()}
    assert sizes == {Fraction(0): 1, Fraction(-2): 2, Fraction(-4): 1}
    single = grade_support(delta(W(4, 1)))
    assert set(single) == {degree(W(4, 1))}


def test_json_round_trip():
    chi = 2 * nabla(W(0, 1, -2)) + nabla(W(1, 1, 1))
    doc = char_to_json(chi)
    assert doc["basis"] == "nabla"
    assert char_from_json(doc) == chi
    # Parabolic payloads round trip too.
    chi_p = FormalChar.single(DELTA, W(1, 0, 5), (2, 1), 3)
    assert char_from_json(char_to_json(chi_p)) == chi_p
    empty = char_to_json(ZERO_CHAR, empty_basis=NABLA)
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
    chi = nabla_to_delta(lam)
    assert sum(chi.terms.values()) == 4  # 2^n terms at n=2, coefficient 1
    assert chi.coeff(DELTA, lam) == 1


@settings(max_examples=40, deadline=None)
@given(_weights2, st.integers(-4, 4))
def test_theta_consistency_property(lam, a):
    # Translating then expanding equals expanding then translating.
    left = char_sum(
        c * nabla_to_delta(mu) for (_, mu), c in theta_nabla(a, lam).terms.items()
    )
    right = theta_char(a, nabla_to_delta(lam))
    assert left == right


def test_theta_outputs_keep_integral_coordinates_int():
    cases = (
        (theta_delta, -1, W(-1, 1, 5), B3),
        (theta_nabla, Fraction(-1), W(-1, 1, 1), B3),
        (theta_delta, Fraction(1, 2), W("1/2", "3/2", 0), B3),
        (theta_nabla, "-3/2", W("1/2", "-3/2", 2), B3),
        (theta_delta, Fraction(4, 2), W(2, 0, 2), (2, 1)),
    )
    for rule, a, lam, p in cases:
        image = rule(a, lam, p)
        assert not image.is_zero(), (rule.__name__, a, lam)
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


def _outcome(convert, chi):
    try:
        return convert(chi)
    except (ValueError, NonTerminating) as exc:
        return type(exc).__name__, str(exc)


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
    sym = symbol(NABLA, p)
    raw = FormalChar({(sym, lam): c for lam, c in terms})
    norm = FormalChar({(sym, weight(*lam)): c for lam, c in terms})
    assert all(type(c) is Fraction for lam in raw.support() for c in lam)
    assert char_to_json(raw) == char_to_json(norm)

    d_norm = _outcome(nabla_sum_to_delta_sum, norm)
    _same_result(_outcome(nabla_sum_to_delta_sum, raw), d_norm)
    if isinstance(d_norm, FormalChar):
        d_raw = FormalChar(
            {
                (s, tuple(Fraction(c) for c in lam)): k
                for (s, lam), k in d_norm.terms.items()
            }
        )
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
