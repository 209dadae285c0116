"""gl(n) Verma/simple multiplicities.

Oracle first: at n <= 3 every Kazhdan-Lusztig polynomial of the symmetric
group is 1, so [M_lam : L_mu] must equal the strong-linkage indicator.  The
KL-based engine is checked against that independent computation on box
grids before any downstream fact is frozen.
"""

import itertools
import random
from fractions import Fraction

import pytest

import reference
from conftest import W, compositions, frac_box, oracle_verma_mult_small
from pericat.glmult import parabolic_verma_simple_mult, verma_simple_mult
from pericat import glmult
from pericat.linkage import strong_down_set, strongly_linked
from pericat.weights import is_p_dominant
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


# --- references for the multiplicity triangle --------------------------------
# Characters of gl(n) Vermas as {weight: coeff} over the Verma basis.


def jantzen_sum(lam):
    """The Jantzen sum formula's right-hand side at level one: ch M_{s_beta lam}
    over the positive even roots beta with positive-integer pairing."""
    out = {}
    for i, j in itertools.combinations(range(len(lam)), 2):
        c = lam[i] - lam[j]
        if reference.is_integer(c) and c > 0:
            mu = lam[:i] + (lam[j],) + lam[i + 1 : j] + (lam[i],) + lam[j + 1 :]
            out[mu] = out.get(mu, 0) + 1
    return out


def simple_in_verma_basis(lam):
    """ch L_lam over the ch M_mu, by inverting the multiplicity triangle
    over the strong-linkage down-set; zero coefficients are dropped."""
    out = {lam: 1}
    for mu in strong_down_set(lam) - {lam}:
        m = verma_simple_mult(lam, mu)
        if m:
            for nu, c in simple_in_verma_basis(mu).items():
                out[nu] = out.get(nu, 0) - m * c
    return {nu: c for nu, c in out.items() if c}


def test_jantzen_sum_fixtures():
    assert jantzen_sum(W(1, 0)) == {W(0, 1): 1}
    assert jantzen_sum(W(0, 1)) == {}  # antidominant
    assert jantzen_sum(W(2, 1, 0)) == {W(1, 2, 0): 1, W(2, 0, 1): 1, W(0, 1, 2): 1}
    # Non-integral pairings contribute nothing.
    assert jantzen_sum(W("1/2", 0)) == {}


def test_jantzen_radical_bound():
    # The sum-formula character dominates the radical: for every mu != lam,
    # sum_nu coeff(M_nu) * [M_nu : L_mu] >= [M_lam : L_mu].
    box = frac_box(-2, 2)
    for lam in itertools.product(box, repeat=2):
        sum_char = jantzen_sum(lam)
        for mu in itertools.product(box, repeat=2):
            if mu == lam:
                continue
            dominated = sum(c * verma_simple_mult(nu, mu) for nu, c in sum_char.items())
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


def test_verma_mult_refuses_float_coordinates():
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        verma_simple_mult((1.5, 0), (0, 1.5))


@pytest.mark.parametrize("p", [(1, 1), (2,)])
def test_parabolic_mult_refuses_float_coordinates(p):
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        parabolic_verma_simple_mult((1.5, 0), (0, 1.5), p)


def test_verma_mult_refuses_bool_coordinates():
    # True == 1 and hashes like it: unrefused, this pair would give 1
    with pytest.raises(TypeError, match="weight coordinate True is not exact"):
        verma_simple_mult((True, 0), (0, True))


@pytest.mark.parametrize("p", [(1, 1), (2,)])
def test_parabolic_mult_refuses_bool_coordinates(p):
    with pytest.raises(TypeError, match="weight coordinate True is not exact"):
        parabolic_verma_simple_mult((True, 0), (0, True), p)


@pytest.mark.parametrize(
    "mu, lam, text",
    [
        pytest.param(W(0, 1, 2), W(2, 1, 0), "0,1,2", id="one-class"),
        pytest.param(
            (Fraction(0), Fraction(1), Fraction(2)), W(2, 0, 1), "0,1,2", id="one-class-raw"
        ),
        pytest.param(W(0, 1, "1/2"), W(1, 0, "1/2"), "0,1,1/2", id="several-classes"),
        pytest.param(W(0, 1, 2), W(0, 1, 3), "0,1,2", id="other-multiset"),
    ],
)
def test_parabolic_guard_keeps_its_typed_error(mu, lam, text):
    # mu is not (2,1)-dominant; the ranks read it in one class, the guard
    # in the others, and each case gives require_p_dominant's message
    with pytest.raises(ValueError) as err:
        parabolic_verma_simple_mult(mu, lam, (2, 1))
    assert str(err.value) == f"{text} is not in Sigma_p^+ for p=(2, 1)"


def test_rank_guard_agrees_with_is_p_dominant():
    # every pair of a box mixing classes and repeats, under every
    # composition: a value exactly when mu is p-dominant, else the guard's error
    box = list(itertools.product((0, 1, 2, H), repeat=3))
    for p in compositions(3):
        for mu in box:
            dominant = is_p_dominant(mu, p)
            for lam in box:
                try:
                    parabolic_verma_simple_mult(mu, lam, p)
                except ValueError as err:
                    assert not dominant and "not in Sigma_p^+" in str(err), (mu, lam, p)
                else:
                    assert dominant, (mu, lam, p)


def test_oracle_rank_guard():
    with pytest.raises(ValueError):
        oracle_verma_mult_small(W(1, 0, 2, 3), W(0, 1, 2, 3))


def test_simple_in_verma_basis():
    # Antidominant weight: the Verma is simple.
    assert simple_in_verma_basis(W(0, 1)) == {W(0, 1): 1}
    # n=2 regular: L = M - M'.
    assert simple_in_verma_basis(W(1, 0)) == {W(1, 0): 1, W(0, 1): -1}


def test_simple_in_verma_inversion_identity():
    # Composing with the multiplicity matrix gives the delta function:
    # sum_mu c_mu [M_mu : L_nu] = [lam = nu].
    for lam in itertools.product(frac_box(-1, 1), repeat=3):
        chi = simple_in_verma_basis(lam)
        assert chi[lam] == 1
        for nu in strong_down_set(lam):
            total = sum(c * verma_simple_mult(mu, nu) for mu, c in chi.items())
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


# --- the kernel against the reference ------------------------------------------


def _p_dominant_for(lam):
    return [p for p in compositions(len(lam)) if is_p_dominant(lam, p)]


def _check_against_reference(lam, mu, ps):
    """verma_simple_mult(lam, mu), and parabolic_verma_simple_mult(lam, mu, p)
    for every p in ps, against the reference."""
    assert verma_simple_mult(lam, mu) == reference.verma_mult(lam, mu), (lam, mu)
    for p in ps:
        got = parabolic_verma_simple_mult(lam, mu, p)
        assert got == reference.parabolic_mult(lam, mu, p), (lam, mu, p)


H, T = Fraction(1, 2), Fraction(1, 3)
# ints, halves and thirds, with raw integral Fractions that bypass `weight()`
REFERENCE_BOXES = {
    1: (-1, 0, 1, Fraction(2), H, 3 * H, T, 4 * T),
    2: (-1, 0, 1, Fraction(2), H, -H, 3 * H, T, 4 * T),
    3: (0, 1, Fraction(2), H, 3 * H, T),
    4: (0, 1, Fraction(2), H),
}


@pytest.mark.parametrize("n", sorted(REFERENCE_BOXES))
def test_kernel_matches_reference_on_boxes(n):
    box = list(itertools.product(REFERENCE_BOXES[n], repeat=n))
    multisets = [sorted(lam) for lam in box]
    for lam, lam_set in zip(box, multisets):
        ps = _p_dominant_for(lam)
        for mu, mu_set in zip(box, multisets):
            if mu_set == lam_set:
                _check_against_reference(lam, mu, ps)
            else:  # the reference's first exit: every value is 0
                assert verma_simple_mult(lam, mu) == 0, (lam, mu)
                assert not any(parabolic_verma_simple_mult(lam, mu, p) for p in ps)


@pytest.mark.parametrize("n", [5, 6])
def test_kernel_matches_reference_on_samples(n):
    rng = random.Random(f"glmult-reference-{n}")
    starts = (0, 1, -2, H, -3 * H, T, 2 * T, Fraction(3))
    for _ in range(100):
        # a p-dominant weight block by block, then rearrangements of it
        p = rng.choice(list(compositions(n)))
        lam = []
        for size in p:
            c = rng.choice(starts)
            for _ in range(size):
                lam.append(c)
                c -= rng.randint(1, 2)
        lam = tuple(lam)
        assert is_p_dominant(lam, p)
        for _ in range(4):
            mu = list(lam)
            rng.shuffle(mu)
            if rng.random() < 0.3:
                mu[rng.randrange(n)] += rng.choice((1, H, T))
            _check_against_reference(lam, tuple(mu), _p_dominant_for(lam))
            assert verma_simple_mult(tuple(mu), lam) == reference.verma_mult(tuple(mu), lam)


def _dense_patterns(n):
    """Every tuple of length n whose values are exactly 0..k-1 for some k."""
    for pattern in itertools.product(range(n), repeat=n):
        if set(pattern) == set(range(max(pattern) + 1)):
            yield pattern


def test_single_sort_coset_representative():
    count = 0
    for n in range(1, 7):
        for pattern in _dense_patterns(n):
            assert glmult._w0_rep(pattern) == reference.w0_coset_rep(pattern), pattern
            count += 1
    assert count == 5316
