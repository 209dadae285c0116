"""gl(n) Verma/simple multiplicities.

Oracle first: at n <= 3 every Kazhdan-Lusztig polynomial of the symmetric
group is 1, so [M_lam : L_mu] must equal the strong-linkage indicator.  The
KL-based engine is checked against that independent computation on box
grids before any downstream fact is frozen.
"""

import itertools
from fractions import Fraction

import pytest

from conftest import W, frac_box
from pericat.characters import EVEN_VERMA, char_sum
from pericat.glmult import (
    even_verma,
    jantzen_sum,
    oracle_verma_mult_small,
    parabolic_verma_simple_mult,
    simple_in_verma_basis,
    verma_simple_mult,
)
from pericat import glmult
from pericat.linkage import strong_down_set, strongly_linked
from pericat.weyl import InvariantViolation


def test_oracle_equivalence_n2_box():
    box = frac_box(-3, 3)
    for lam in itertools.product(box, repeat=2):
        for mu in itertools.product(box, repeat=2):
            assert verma_simple_mult(lam, mu) == oracle_verma_mult_small(lam, mu)


def test_oracle_equivalence_n3_sample():
    # Exhaustive over a small box (the full {-4..4}^3 grid runs in the
    # acceptance suite).
    box = frac_box(-1, 2)
    for lam in itertools.product(box, repeat=3):
        for mu in itertools.product(box, repeat=3):
            assert verma_simple_mult(lam, mu) == oracle_verma_mult_small(lam, mu)


def test_oracle_equivalence_nonintegral():
    pairs = [
        (W(1, "1/2", 0), W(0, "1/2", 1)),
        (W(1, "1/2", 0), W(1, "3/2", 0)),
        (W("3/2", "1/2", 0), W("1/2", "3/2", 0)),
        (W(2, "1/2", "-1/2"), W(2, "-1/2", "1/2")),
    ]
    for lam, mu in pairs:
        assert verma_simple_mult(lam, mu) == oracle_verma_mult_small(lam, mu)


def test_basic_fixtures():
    assert verma_simple_mult(W(1, 0), W(0, 1)) == 1
    assert verma_simple_mult(W(0, 1), W(1, 0)) == 0
    lam = W(3, -2, 5)
    assert verma_simple_mult(lam, lam) == 1
    # Antidominant target in the same orbit: multiplicity 1 (P_{x,w0} = 1).
    for mu in itertools.permutations(W(0, 1, 2)):
        assert verma_simple_mult(mu, W(0, 1, 2)) == 1


def test_different_orbits_zero():
    assert verma_simple_mult(W(1, 0), W(2, 0)) == 0
    assert verma_simple_mult(W(1, 0), W("1/2", 0)) == 0
    assert verma_simple_mult(W(1, 0, 2), W(1, 1, 2)) == 0


def test_jantzen_sum_fixtures():
    assert jantzen_sum(W(1, 0)) == even_verma(W(0, 1))
    assert jantzen_sum(W(0, 1)).is_zero()  # antidominant
    assert jantzen_sum(W(2, 1, 0)) == char_sum(
        [even_verma(W(1, 2, 0)), even_verma(W(2, 0, 1)), even_verma(W(0, 1, 2))]
    )
    # Non-integral pairings contribute nothing.
    assert jantzen_sum(W("1/2", 0)).is_zero()


def test_jantzen_radical_bound():
    # The sum-formula character dominates the radical: for every mu != lam,
    # sum_nu coeff(M_nu) * [M_nu : L_mu] >= [M_lam : L_mu].
    box = frac_box(-2, 2)
    for lam in itertools.product(box, repeat=2):
        sum_char = jantzen_sum(lam)
        for mu in itertools.product(box, repeat=2):
            if mu == lam:
                continue
            dominated = sum(
                c * verma_simple_mult(nu, mu)
                for (_, nu), c in sum_char.terms.items()
            )
            assert dominated >= verma_simple_mult(lam, mu)


def test_parabolic_fixtures():
    p21 = (2, 1)
    assert parabolic_verma_simple_mult(W(2, 1, 0), W(0, 1, 2), p21) == 0
    assert parabolic_verma_simple_mult(W(2, 1, 0), W(2, 1, 0), p21) == 1
    # p = b reduces to the Borel multiplicity.
    for mu in itertools.permutations(W(0, 1, 2)):
        assert parabolic_verma_simple_mult(mu, W(0, 1, 2), (1, 1, 1)) == (
            verma_simple_mult(mu, W(0, 1, 2))
        )


def test_parabolic_requires_p_dominant():
    with pytest.raises(ValueError):
        parabolic_verma_simple_mult(W(0, 1, 2), W(0, 1, 2), (2, 1))


def test_oracle_rank_guard():
    with pytest.raises(ValueError):
        oracle_verma_mult_small(W(1, 0, 2, 3), W(0, 1, 2, 3))


def test_simple_in_verma_basis():
    # Antidominant weight: the Verma is simple.
    assert simple_in_verma_basis(W(0, 1)) == even_verma(W(0, 1))
    # n=2 regular: L = M - M'.
    chi = simple_in_verma_basis(W(1, 0))
    assert chi == even_verma(W(1, 0)) - even_verma(W(0, 1))


def test_simple_in_verma_inversion_identity():
    # Composing with the multiplicity matrix gives the delta function:
    # sum_mu c_mu [M_mu : L_nu] = [lam = nu].
    for lam in itertools.product(frac_box(-1, 1), repeat=3):
        chi = simple_in_verma_basis(lam)
        assert chi.coeff(EVEN_VERMA, lam, (1, 1, 1)) == 1
        for nu in strong_down_set(lam):
            total = sum(
                c * verma_simple_mult(mu, nu) for (_, mu), c in chi.terms.items()
            )
            assert total == (1 if nu == lam else 0)


def test_unitriangularity():
    # [M_mu : L_mu] = 1 and [M_mu : L_lam] = 0 unless lam is strongly
    # linked to mu.
    box = frac_box(-2, 2)
    for mu in itertools.product(box, repeat=2):
        assert verma_simple_mult(mu, mu) == 1
        for lam in itertools.product(box, repeat=2):
            if verma_simple_mult(mu, lam):
                assert strongly_linked(lam, mu)


def test_parabolic_negative_total_is_typed(monkeypatch):
    mu = W(1, 0, 5)
    assert parabolic_verma_simple_mult(mu, mu, (2, 1)) == 1
    # keep only the odd Levi element: the alternating sum turns negative
    monkeypatch.setattr(glmult, "levi_weyl_group", lambda p: (((0, 1, 2), 1),))
    with pytest.raises(InvariantViolation, match="< 0"):
        parabolic_verma_simple_mult(mu, mu, (2, 1))
