"""Weakly-typical tilting characters and their certificates."""

import itertools
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import B3, W, frac_box, nab_sum
from pericat.characters import DELTA, NABLA, nabla, nabla_to_delta
from pericat.glmult import verma_simple_mult
from pericat.linkage import strong_up_set, strongly_linked
from pericat.tilting import (
    NotWeaklyTypical,
    OddReflectionFact,
    kac_char,
    kac_is_simple,
    neg_w0p,
    parabolic_verma_is_simple,
    pieri_difference,
    prop41_equivalent,
    standard_fact_edges,
    super_verma_mult_wt,
    tilting_delta_mults_wt,
    tilting_equals_nabla,
    weakly_typical_tilting,
)
from pericat.weights import (
    is_antidominant,
    is_dominant,
    is_integral,
    is_p_weakly_typical,
    negate,
)
from pericat.characters import LEVI_SIMPLE, delta
from pericat import tilting
from pericat.weyl import InvariantViolation, all_perms, apply_perm


def test_neg_w0p():
    assert neg_w0p(W(1, 0, 5), (1, 1, 1)) == W(-1, 0, -5)
    assert neg_w0p(W(1, 0, 5), (2, 1)) == W(0, -1, -5)
    assert neg_w0p(W(1, 2, 3), (3,)) == W(-3, -2, -1)


def test_prop41_equivalent():
    assert prop41_equivalent(W(-1, 1, 5), B3)
    assert not prop41_equivalent(W(0, 1, 5), B3)
    assert prop41_equivalent(W(2, 0, 5), (2, 1))


def test_kac_char():
    assert kac_char(W(0, 1)) == delta(W(0, 1))  # antidominant
    assert kac_char(W(1, 0)) == delta(W(1, 0)) - delta(W(0, 1))
    for lam in (W(2, 0, 1), W(1, 1, 0)):
        assert kac_char(lam).coeff(DELTA, lam) == 1


def test_super_verma_mult_wt():
    lam = W(1, -1, -5)
    assert super_verma_mult_wt(lam, lam) == 1
    assert super_verma_mult_wt(W(-5, -1, 1), lam) == verma_simple_mult(
        W(-5, -1, 1), lam
    )
    assert super_verma_mult_wt(W(0, 0, 0), lam) == 0
    with pytest.raises(NotWeaklyTypical):
        super_verma_mult_wt(W(0, -1, -5), W(0, -1, -5))


def test_kac_is_simple():
    assert kac_is_simple(W(1, -1, -5))
    assert not kac_is_simple(W(0, -1, -5))
    assert kac_is_simple(W(7,))


def test_parabolic_verma_is_simple():
    assert parabolic_verma_is_simple(W(-2, 0, 1), B3)
    assert not parabolic_verma_is_simple(W(2, 1, 0), B3)  # M^0 not simple
    assert not parabolic_verma_is_simple(W(1, 0, 5), B3)  # pairing 1 kills it
    # (0,1,5) is g0-weakly-typical (pairings -1,-5,-4) with an antidominant
    # hence simple even Verma, so its super Verma is simple too.
    assert parabolic_verma_is_simple(W(0, 1, 5), B3)


# --- the six weakly-typical anchors the appendix builds on --------------------


def test_anchor_tilting_equals_nabla_high():
    for b in (3, 5, 9):
        assert weakly_typical_tilting(W(-1, 1, b)) == nabla(W(-1, 1, b))


def test_anchor_four_terms_low():
    for b in (-3, -4):
        expected = nab_sum((-1, 1, b), (-1, b, 1), (b, -1, 1), (b, 1, -1))
        assert weakly_typical_tilting(W(-1, 1, b)) == expected


def test_anchor_two_terms_minus_one():
    expected = nab_sum((-1, 1, -1), (-1, -1, 1))
    assert weakly_typical_tilting(W(-1, 1, -1)) == expected


def test_anchor_a_minus_one_one():
    for a in (2, 4):
        expected = nab_sum((a, -1, 1), (-1, a, 1), (-1, 1, a), (1, -1, a))
        assert weakly_typical_tilting(W(a, -1, 1)) == expected


def test_anchor_antidominant_single():
    assert weakly_typical_tilting(W(-3, -1, 1)) == nabla(W(-3, -1, 1))


def test_anchor_one_minus_one_one():
    expected = nab_sum((1, -1, 1), (-1, 1, 1))
    assert weakly_typical_tilting(W(1, -1, 1)) == expected


def test_tilting_requires_weak_typicality():
    with pytest.raises(NotWeaklyTypical):
        weakly_typical_tilting(W(0, 1, 5))


def test_tilting_leading_coefficient_and_positivity():
    for lam in (W(-1, 1, -3), W(2, -1, 1), W(0, 2, -3)):
        chi = weakly_typical_tilting(lam)
        assert chi.coeff(NABLA, lam) == 1
        assert all(c > 0 for c in chi.terms.values())


def test_flag_multiplicity_restatement():
    # The nabla coefficient at mu equals the even Verma multiplicity
    # [M_{-mu} : L_{-lam}] for p = b.
    for lam in (W(-1, 1, -3), W(1, -1, 1), W(0, -2, "1/2")):
        chi = weakly_typical_tilting(lam)
        for mu_neg in strong_up_set(negate(lam)):
            mu = negate(mu_neg)
            assert chi.coeff(NABLA, mu) == verma_simple_mult(negate(mu), negate(lam))


def test_parabolic_tilting():
    # p = (2,1): the parabolic engine route on a (2,1)-weakly-typical weight.
    chi = weakly_typical_tilting(W(2, 0, 5), (2, 1))
    assert chi.coeff(NABLA, W(2, 0, 5), (2, 1)) == 1
    for (_, mu), c in chi.terms.items():
        assert c > 0


def test_tilting_equals_nabla():
    assert tilting_equals_nabla(W(-1, 1, 5))
    assert not tilting_equals_nabla(W(-1, 1, 0))
    assert tilting_equals_nabla(W(-3, -1, 1))


def test_tilting_equals_nabla_iff_antidominant_weakly_typical():
    box = frac_box(-2, 2)
    for lam in itertools.product(box, repeat=3):
        expected = is_antidominant(lam) and is_p_weakly_typical(lam, B3)
        assert tilting_equals_nabla(lam) == expected
        if tilting_equals_nabla(lam):
            assert len(weakly_typical_tilting(lam).terms) == 1


def test_dominant_orbit_sum():
    # Dominant integral weights: the tilting character is the orbit sum.
    for lam in (W(2, 1, 0), W(3, 1, -1)):
        chi = weakly_typical_tilting(lam)
        orbit = {apply_perm(w, lam) for w in all_perms(3)}
        assert chi == nab_sum(*orbit)


def test_delta_mults_weakly_typical():
    chi = tilting_delta_mults_wt(W(-1, 1, 5))
    assert chi == nabla_to_delta(W(-1, 1, 5))
    assert chi.coeff(DELTA, W(-1, 1, 5)) == 1


def test_delta_mult_two_exists():
    # Computed standard-flag multiplicity 2: the dual-Verma expansions of
    # T_{0,-2,1/2} overlap at Delta_{-2,-2,1/2}.  (A frozen record of the
    # engine's arithmetic; see notes on the flag-bound check in the
    # verification suite.)
    lam = W(0, -2, "1/2")
    assert is_p_weakly_typical(lam, B3)
    tilt = weakly_typical_tilting(lam)
    assert tilt == nab_sum((0, -2, "1/2"), (-2, 0, "1/2"))
    mults = tilting_delta_mults_wt(lam)
    assert mults.coeff(DELTA, W(-2, -2, "1/2")) == 2
    # Same phenomenon at n = 2 with integral coordinates.
    tilt2 = weakly_typical_tilting(W(0, -2))
    assert tilt2 == nab_sum((0, -2), (-2, 0))
    mults2 = tilting_delta_mults_wt(W(0, -2))
    assert mults2.coeff(DELTA, W(-2, -2)) == 2


def test_standard_fact_edges():
    fact = OddReflectionFact(tag="soc-1", eta=W(0, -2, -1), kac=W(1, -2, 0))
    edges = standard_fact_edges([fact])
    assert (W(0, 2, 1), W(-1, 2, 0)) in edges
    fact2 = OddReflectionFact(tag="soc-2", eta=W(1, -1, 0), kac=W(2, -1, 1))
    edges2 = standard_fact_edges([fact2])
    assert (W(-1, 1, 0), W(-2, 1, -1)) in edges2
    assert standard_fact_edges([]) == set()
    # Every edge source is the fixed tilting weight and every target comes
    # from the up-set of the Kac weight.
    for src, dst in edges:
        assert src == W(0, 2, 1)
        assert strongly_linked(W(1, -2, 0), negate(dst))


def test_odd_reflection_fact_br_payload():
    fact = OddReflectionFact(tag="br", eta=W(-1, 0, -1), br=W(-3, -1, -2))
    assert fact.kac_weight() == W(-1, 1, 0)


def test_pieri_difference():
    chi = pieri_difference(W(1, 0, 5), (2, 1))
    assert chi.coeff(LEVI_SIMPLE, W(1, -2, 5), (2, 1)) == 1
    assert chi.coeff(LEVI_SIMPLE, W(1, 0, 3), (2, 1)) == 1
    assert chi.coeff(LEVI_SIMPLE, W(0, -1, 5), (2, 1)) == -1
    assert chi.coeff(LEVI_SIMPLE, W(-1, 0, 5), (2, 1)) == 0
    # Borel case: only the +2 epsilon terms survive.
    chi_b = pieri_difference(W(3, 1, 0), B3)
    assert all(c == 1 for c in chi_b.terms.values())
    assert len(chi_b.terms) == 3


def test_engine_invariants_raise_typed_errors(monkeypatch):
    lam = W(-1, 1, 5)
    with monkeypatch.context() as m:
        m.setattr(tilting, "is_g0_weakly_typical", lambda mu: False)
        with pytest.raises(InvariantViolation, match="Prop. 4.1"):
            prop41_equivalent(lam)
    with monkeypatch.context() as m:
        m.setattr(tilting, "parabolic_verma_simple_mult", lambda mu, eta, p: 2)
        with pytest.raises(InvariantViolation, match="coefficient 2"):
            weakly_typical_tilting(lam)
    assert prop41_equivalent(lam) is True
    assert weakly_typical_tilting(lam).coeff(NABLA, lam) == 1


def test_engine_invariant_fires_under_python_O():
    src = Path(tilting.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from pericat import tilting\n"
        "from pericat.weights import weight\n"
        "from pericat.weyl import InvariantViolation\n"
        "assert False, 'asserts are stripped under -O'\n"
        "tilting.is_g0_weakly_typical = lambda mu: False\n"
        "try:\n"
        "    tilting.prop41_equivalent(weight(-1, 1, 5))\n"
        "except InvariantViolation as exc:\n"
        "    print(exc)\n"
        "    sys.exit(0)\n"
        "sys.exit(3)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("Prop. 4.1 fails at -1,1,5")
