"""Root data, weight arithmetic, dominance, and typicality predicates."""

import itertools
from fractions import Fraction

import pytest

from conftest import W, frac_box, normalised
from pericat.weights import (
    add,
    basis_vector,
    borel,
    conjugate,
    degree,
    even_root,
    exact,
    format_weight,
    is_antidominant,
    is_dominant,
    is_g0_weakly_typical,
    is_integer,
    is_integral,
    is_p_dominant,
    is_p_weakly_typical,
    is_typical,
    levi_blocks,
    levi_positive_roots,
    n_odd,
    negate,
    odd_roots,
    omega,
    pairing,
    parse_weight,
    partial_weight,
    positive_even_roots,
    rho,
    shift,
    simple_roots,
    sub,
    weight,
)
from pericat.weyl import all_perms, apply_perm


def test_text_round_trip():
    for text in ("0,1,-2", "0,1/2,1", "-5", "3,-1/3"):
        assert format_weight(parse_weight(text)) == text
    with pytest.raises(ValueError):
        parse_weight("1,,2")


def test_rho_and_degree():
    assert rho(3) == W(2, 1, 0)
    assert degree(rho(4)) == 0
    b = Fraction(5)
    assert degree(W(0, 1, b)) == b - 2
    assert degree(W(0)) == 0


def test_degree_invariances():
    lam = W(3, -1, 2)
    for q in range(3):
        two_eq = tuple(2 * c for c in basis_vector(q, 3))
        assert degree(add(lam, two_eq)) == degree(lam) + 2
        assert degree(sub(lam, two_eq)) == degree(lam) - 2
    for w in all_perms(3):
        assert degree(apply_perm(w, lam)) == degree(lam)


def test_omega_partial_n_odd():
    assert omega(3) == W(1, 1, 1)
    assert partial_weight(2, 3) == W(1, 1, 0)
    assert n_odd(partial_weight(2, 3)) == 2
    assert n_odd(W(2, 4, 6)) == 0
    for i in range(4):
        assert n_odd(partial_weight(i, 4)) == i
    with pytest.raises(ValueError):
        n_odd(W(1, "1/2"))


def test_n_odd_invariances():
    lam = W(3, 0, 5)
    for q in range(3):
        two_eq = tuple(2 * c for c in basis_vector(q, 3))
        assert n_odd(add(lam, two_eq)) == n_odd(lam)
    for w in all_perms(3):
        assert n_odd(apply_perm(w, lam)) == n_odd(lam)


def test_root_data():
    n = 3
    assert even_root(0, 1, n) == W(1, -1, 0)
    assert conjugate(even_root(0, 1, n)) == W(1, 1, 0)
    assert len(positive_even_roots(n)) == 3
    assert len(simple_roots(n)) == 2
    assert len(odd_roots(n)) == 9  # epsilon_i + epsilon_j for all i, j
    assert pairing(W(1, -1, 0), even_root(0, 1, n)) == 2


def test_levi_structure():
    assert borel(3) == (1, 1, 1)
    assert [list(r) for r in levi_blocks((2, 1))] == [[0, 1], [2]]
    assert levi_positive_roots((2, 1), 3) == [even_root(0, 1, 3)]
    assert levi_positive_roots((1, 1, 1), 3) == []
    assert levi_positive_roots((3,), 3) == positive_even_roots(3)


def test_dominance():
    assert is_dominant(W(2, 1, 0))
    assert not is_dominant(W(0, 1, 2))
    assert is_antidominant(W(0, 1, 2))
    # Non-integral pairings block nothing.
    assert is_dominant(W(0, "1/2"))
    assert is_antidominant(W(0, "1/2"))
    assert is_p_dominant(W(1, 0, 5), (2, 1))
    assert not is_p_dominant(W(0, 1, 5), (2, 1))
    assert is_p_dominant(W(0, 1, 5), (1, 1, 1))


def test_dominant_and_antidominant_iff_no_integer_pairing():
    box = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1)]
    for lam in itertools.product(box, repeat=3):
        both = is_dominant(lam) and is_antidominant(lam)
        none_integral = all(
            not (is_integer(pairing(lam, beta)) and pairing(lam, beta) != 0)
            for beta in positive_even_roots(3)
        )
        assert both == none_integral


def test_typicality_predicates():
    assert is_p_weakly_typical(W(-1, 1, 5), (1, 1, 1))
    assert not is_p_weakly_typical(W(0, 1, 5), (1, 1, 1))
    # Dominant integral weights are always weakly typical for the Borel.
    for lam in itertools.product(frac_box(-2, 2), repeat=3):
        if is_dominant(lam) and is_integral(lam):
            assert is_p_weakly_typical(lam, (1, 1, 1))
    # g0-weak-typicality only constrains within-orbit pairs.
    assert is_g0_weakly_typical(W(1, -1, -5))
    assert not is_g0_weakly_typical(W(0, -1, -5))
    # Typicality is the stronger condition <lam, eps_i + eps_j> != -1.
    assert is_typical(W(0, "1/2", "1/3"))
    assert not is_typical(W(0, -1, 5))  # eps_1 + eps_2 pairing is -1
    assert not is_typical(W(2, 1, "1/2"))  # 2*eps_2 + ... diagonal root


def test_weakly_typical_vs_parabolic():
    # For p = (2,1) the Levi root eps_1 - eps_2 contributes the factor
    # <lam, alpha_1> - 1 while the other roots contribute <lam, beta> + 1.
    assert is_p_weakly_typical(W(2, 0, 5), (2, 1))
    assert not is_p_weakly_typical(W(1, 0, 5), (2, 1))  # Levi pairing 1
    assert not is_p_weakly_typical(W(2, 0, 1), (2, 1))  # cross pairing -1
    # The same weight can be weakly typical for one parabolic and not the
    # other.
    assert is_p_weakly_typical(W(1, 0, 5), (1, 1, 1))


def test_weight_algebra():
    lam = W(1, 2, 3)
    assert add(lam, negate(lam)) == W(0, 0, 0)
    assert shift(lam, Fraction(1, 2)) == W("3/2", "5/2", "7/2")
    assert sub(shift(lam, 2), lam) == W(2, 2, 2)
    assert weight("1/2") == (Fraction(1, 2),)


def test_weight_rejects_float_and_bool():
    for bad in ((0.1, 1, 5), (1.0, 0, 0), (True, 0, 1), (0, False)):
        with pytest.raises(TypeError):
            weight(*bad)
    assert weight(0, "1/2", Fraction(-2)) == (Fraction(0), Fraction(1, 2), Fraction(-2))
    assert parse_weight("0.5,1") == (Fraction(1, 2), Fraction(1))


def test_integral_coordinates_are_int():
    assert [type(c) for c in weight(0, "1/2", Fraction(4, 2), "6/3")] == [
        int, Fraction, int, int
    ]
    assert [type(c) for c in parse_weight("0,1/2,-4/2,0.5")] == [int, Fraction, int, Fraction]
    assert type(exact("4/2")) is int and type(exact(Fraction(-1, 3))) is Fraction
    half = W("1/2", "3/2", 1)
    for lam in (
        weight(0, "1/2", Fraction(-4, 2)),
        parse_weight("0,1/2,-2,6/3"),
        shift(half, "1/2"),
        shift(half, Fraction(2)),
        shift(W(1, 2, 3), "-1/2"),
        shift(W(1, 2, 3), Fraction(4, 2)),
        rho(4),
        omega(3),
        basis_vector(1, 3),
        partial_weight(2, 4),
        even_root(0, 2, 3),
        conjugate(even_root(0, 2, 3)),
    ):
        assert normalised(lam), lam
    assert shift(half, "1/2") == (1, 2, Fraction(3, 2))
    assert type(degree(W(0, 1, 5))) is int
    assert degree(W(0, 1, "5/2")) == Fraction(1, 2)
    # An int equals and hashes like the equal Fraction, so either is a key.
    assert hash(weight(0, 2)) == hash((Fraction(0), Fraction(2)))
