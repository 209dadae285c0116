"""Root data, weight arithmetic, dominance, and typicality predicates."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given

import reference
from conftest import (
    W,
    basis_vector,
    compositions,
    conjugate,
    even_root,
    frac_box,
    levi_positive_roots,
    mixed_weights,
    normalised,
    partial_weight,
)
from pericat.characters import delta, nabla
from pericat.glmult import parabolic_verma_simple_mult
from pericat.linkage import _lowered, thm34_nabla_edge
from pericat.pe3.tables import lookup_tilting_pe3
from pericat.tilting import weakly_typical_tilting
from pericat.weights import (
    borel,
    degree,
    exact,
    format_weight,
    integrality_classes,
    is_dominant,
    is_g0_weakly_typical,
    is_p_dominant,
    is_p_weakly_typical,
    levi_blocks,
    negate,
    parse_weight,
    shift,
    weight,
)
from pericat.weyl import all_perms, apply_perm

POSITIVE_ROOTS_3 = [even_root(i, j, 3) for i, j in itertools.combinations(range(3), 2)]


def pairing(lam, mu):
    """The standard form <.,.> with <e_i, e_j> = delta_ij."""
    return sum(a * b for a, b in zip(lam, mu))


def test_text_round_trip():
    for text in ("0,1,-2", "0,1/2,1", "-5", "3,-1/3"):
        assert format_weight(parse_weight(text)) == text
    with pytest.raises(ValueError):
        parse_weight("1,,2")


def test_rho_and_degree():
    assert degree(W(2, 1, 0)) == 0  # rho = (n-1, ..., 1, 0) has degree 0
    assert degree(W(3, 2, 1, 0)) == 0
    b = Fraction(5)
    assert degree(W(0, 1, b)) == b - 2
    assert degree(W(0)) == 0


def test_degree_invariances():
    lam = W(3, -1, 2)
    for q in range(3):
        assert degree(negate(_lowered(negate(lam), q, q))) == degree(lam) + 2
        assert degree(_lowered(lam, q, q)) == degree(lam) - 2
    for w in all_perms(3):
        assert degree(apply_perm(w, lam)) == degree(lam)


def test_omega_and_partial_weight():
    assert shift(W(0, 0, 0), 1) == W(1, 1, 1)
    assert partial_weight(2, 3) == W(1, 1, 0)


def test_root_data():
    n = 3
    assert even_root(0, 1, n) == W(1, -1, 0)
    assert conjugate(even_root(0, 1, n)) == W(1, 1, 0)
    assert pairing(W(1, -1, 0), even_root(0, 1, n)) == 2


def test_levi_structure():
    assert borel(3) == (1, 1, 1)
    assert [list(r) for r in levi_blocks((2, 1))] == [[0, 1], [2]]
    assert levi_positive_roots((2, 1), 3) == [even_root(0, 1, 3)]
    assert levi_positive_roots((1, 1, 1), 3) == []
    assert levi_positive_roots((3,), 3) == POSITIVE_ROOTS_3


def test_dominance():
    assert is_dominant(W(2, 1, 0))
    assert not is_dominant(W(0, 1, 2))
    assert reference.is_antidominant(W(0, 1, 2))
    # Non-integral pairings block nothing.
    assert is_dominant(W(0, "1/2"))
    assert reference.is_antidominant(W(0, "1/2"))
    assert is_p_dominant(W(1, 0, 5), (2, 1))
    assert not is_p_dominant(W(0, 1, 5), (2, 1))
    assert is_p_dominant(W(0, 1, 5), (1, 1, 1))


@pytest.mark.parametrize(
    "entry, args",
    [
        pytest.param(entry, args, id=entry.__name__)
        for entry, args in (
            (weakly_typical_tilting, ((-1, 1, 5), [1, 1, 1])),
            (thm34_nabla_edge, ((2, 0, 1), 1, [1, 1, 1])),
            (parabolic_verma_simple_mult, ((1, 0, 2), (1, 0, 2), [1, 1, 1])),
            (is_p_dominant, ((2, 0, 1), [1, 1, 1])),
            (is_p_weakly_typical, ((2, 0, 1), [1, 1, 1])),
            (delta, ((2, 0, 1), [1, 1, 1])),
            (nabla, ((2, 0, 1), [1, 1, 1])),
            (lookup_tilting_pe3, ((2, 0, 1), [1, 1, 1])),
        )
    ],
)
def test_list_parabolic_is_a_typed_error(entry, args):
    # a parabolic that is not a tuple is refused by name, never converted
    with pytest.raises(TypeError, match=r"parabolic \[1, 1, 1\] is a list, not a tuple"):
        entry(*args)


def test_dominant_and_antidominant_iff_no_integer_pairing():
    box = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(-1)]
    for lam in itertools.product(box, repeat=3):
        both = is_dominant(lam) and reference.is_antidominant(lam)
        none_integral = all(
            not (reference.is_integer(pairing(lam, beta)) and pairing(lam, beta) != 0)
            for beta in POSITIVE_ROOTS_3
        )
        assert both == none_integral


def test_typicality_predicates():
    assert is_p_weakly_typical(W(-1, 1, 5), (1, 1, 1))
    assert not is_p_weakly_typical(W(0, 1, 5), (1, 1, 1))
    # Dominant integral weights are always weakly typical for the Borel.
    for lam in itertools.product(frac_box(-2, 2), repeat=3):
        if is_dominant(lam) and all(map(reference.is_integer, lam)):
            assert is_p_weakly_typical(lam, (1, 1, 1))
    # g0-weak-typicality only constrains within-orbit pairs.
    assert is_g0_weakly_typical(W(1, -1, -5))
    assert not is_g0_weakly_typical(W(0, -1, -5))


ORACLE_BOXES = {
    "integral": list(range(-2, 3)),
    "half-integral": [Fraction(k, 2) for k in (-3, -1, 1, 3)],
    "mixed-class": [-1, 0, 1, Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)],
    "raw-Fraction": frac_box(-2, 2),
}


@pytest.mark.parametrize("box", ORACLE_BOXES.values(), ids=ORACLE_BOXES.keys())
def test_scaled_predicates_match_fraction_oracle(box):
    for n in range(1, 5):
        parabolics = list(compositions(n))
        for lam in itertools.product(box, repeat=n):
            assert is_dominant(lam) == reference.is_dominant(lam), lam
            assert is_g0_weakly_typical(lam) == reference.is_g0_weakly_typical(lam), lam
            for p in parabolics:
                assert is_p_dominant(lam, p) == reference.is_p_dominant(lam, p), (lam, p)
                typical = reference.is_p_weakly_typical(lam, p)
                assert is_p_weakly_typical(lam, p) == typical, (lam, p)


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
    assert _lowered(lam, 0, 1, 1, 2, 2, 2) == W(0, 0, 0)
    assert _lowered(lam, 2, 0, 2) == W(0, 2, 1)  # the order of the indices is free
    assert shift(lam, Fraction(1, 2)) == W("3/2", "5/2", "7/2")
    assert _lowered(shift(lam, 2), 0, 0, 1, 1, 2, 2) == lam
    assert weight("1/2") == (Fraction(1, 2),)


def test_weight_rejects_float_and_bool():
    for bad in ((0.1, 1, 5), (1.0, 0, 0), (True, 0, 1), (0, False)):
        with pytest.raises(TypeError):
            weight(*bad)
    assert weight(0, "1/2", Fraction(-2)) == (Fraction(0), Fraction(1, 2), Fraction(-2))
    assert parse_weight("0.5,1") == (Fraction(1, 2), Fraction(1))


def test_zero_denominator_is_a_value_error():
    for bad in ("1/0", "0/0", "-3/0"):
        with pytest.raises(ValueError, match=f"weight coordinate {bad!r} has a zero denominator"):
            exact(bad)
    with pytest.raises(ValueError, match="zero denominator"):
        parse_weight("0,1/0")


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
        _lowered(half, 0, 2),
        basis_vector(1, 3),
        even_root(0, 2, 3),
        conjugate(even_root(0, 2, 3)),
    ):
        assert normalised(lam), lam
    assert shift(half, "1/2") == (1, 2, Fraction(3, 2))
    assert type(degree(W(0, 1, 5))) is int
    assert degree(W(0, 1, "5/2")) == Fraction(1, 2)
    # An int equals and hashes like the equal Fraction, so either is a key.
    assert hash(weight(0, 2)) == hash((Fraction(0), Fraction(2)))


def test_integrality_classes_fixtures():
    assert [len(pos) for _, pos in integrality_classes(W(0, "1/2", 1))] == [2, 1]
    assert integrality_classes(W(4, -1, 0)) == [((0, 1), [0, 1, 2])]
    # 1/3 and 4/3 differ by an integer, 2/3 sits alone; first-occurrence
    # ordering puts the size-2 class first.
    assert integrality_classes(W("1/3", "2/3", "4/3")) == [((1, 3), [0, 2]), ((2, 3), [1])]
    # a raw integral Fraction lands in the integral class
    assert integrality_classes((Fraction(3), 0, Fraction(-1, 2))) == [
        ((0, 1), [0, 1]),
        ((1, 2), [2]),
    ]


@pytest.mark.parametrize("lam, shown", [((1.5, 0), "1.5"), ((0, True), "True")])
def test_integrality_classes_refuses_inexact_coordinates(lam, shown):
    # a float has no denominator to read; a bool has an int's
    with pytest.raises(TypeError, match=f"weight coordinate {shown} is not exact"):
        integrality_classes(lam)


@given(mixed_weights)
def test_integrality_classes_partition(lam):
    classes = integrality_classes(lam)
    positions = [i for _, pos in classes for i in pos]
    assert sorted(positions) == list(range(len(lam)))
    # first-occurrence order: classes by their first position, each sorted
    assert [pos[0] for _, pos in classes] == sorted(pos[0] for _, pos in classes)
    assert all(pos == sorted(pos) for _, pos in classes)
    cls = {i: key for key, pos in classes for i in pos}
    for i, j in itertools.combinations(range(len(lam)), 2):
        assert (cls[i] == cls[j]) == reference.is_integer(lam[i] - lam[j])
    for (r, d), pos in classes:
        for i in pos:
            assert Fraction(lam[i]) - (lam[i] // 1) == Fraction(r, d)
