"""Weakly-typical tilting characters and their certificates."""

import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
from conftest import (
    B3,
    W,
    compositions,
    frac_box,
    nab_sum,
    tilting_delta_mults_wt,
)
from pericat.characters import DELTA, NABLA, nabla
from pericat.glmult import verma_simple_mult
from pericat.tilting import (
    NotWeaklyTypical,
    neg_w0p,
    tilting_equals_nabla,
    weakly_typical_tilting,
)
from pericat.weights import (
    exact,
    is_g0_weakly_typical,
    is_p_dominant,
    is_p_weakly_typical,
    negate,
)
from pericat import glmult, tilting
from pericat.weyl import InvariantViolation, all_perms, apply_perm


def test_neg_w0p():
    assert neg_w0p(W(1, 0, 5), (1, 1, 1)) == W(-1, 0, -5)
    assert neg_w0p(W(1, 0, 5), (2, 1)) == W(0, -1, -5)
    assert neg_w0p(W(1, 2, 3), (3,)) == W(-3, -2, -1)


def test_kac_is_simple():
    # The Kac module K(lam) is simple exactly when lam is g0-weakly-typical.
    assert is_g0_weakly_typical(W(1, -1, -5))
    assert not is_g0_weakly_typical(W(0, -1, -5))
    assert is_g0_weakly_typical(W(7))


def test_prop41_equivalent():
    # Prop. 4.1: a p-dominant lam is p-weakly-typical exactly when
    # -w_0^p(lam) is g0-weakly-typical; every composition, n <= 4, over an
    # integral and a half-integral box
    assert is_g0_weakly_typical(neg_w0p(W(2, 0, 5), (2, 1)))
    assert not is_g0_weakly_typical(neg_w0p(W(0, 1, 5), B3))
    boxes = (frac_box(-2, 2), [Fraction(k, 2) for k in range(-3, 4)])
    seen = set()
    for n in range(1, 5):
        for values in boxes:
            for lam in itertools.product(map(exact, values), repeat=n):
                for p in compositions(n):
                    if is_p_dominant(lam, p):
                        typical = is_p_weakly_typical(lam, p)
                        assert typical == is_g0_weakly_typical(neg_w0p(lam, p)), (lam, p)
                        seen.add((typical, p != (1,) * n))
    assert len(seen) == 4  # both verdicts, at the Borel and at a larger p


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


def test_tilting_refuses_float_coordinates():
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        weakly_typical_tilting((1.5, 0, 3))


def test_tilting_refuses_bool_coordinates():
    # negated, True would reach the engine as the int -1
    with pytest.raises(TypeError, match="weight coordinate True is not exact"):
        weakly_typical_tilting((True, 0))


@pytest.mark.parametrize("lam, shown", [((1.5, 0, 3), "1.5"), ((True, 0), "True")])
def test_tilting_equals_nabla_refuses_inexact_coordinates(lam, shown):
    # is_dominant would read 1.5's missing denominator, and the cached
    # p-dominance guard would take (True, 0) for (1, 0)
    with pytest.raises(TypeError, match=f"weight coordinate {shown} is not exact"):
        tilting_equals_nabla(lam)


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
        for mu_neg in reference.up_set(negate(lam)):
            mu = negate(mu_neg)
            assert chi.coeff(NABLA, mu) == verma_simple_mult(negate(mu), negate(lam))


def test_parabolic_tilting():
    # p = (2,1): the parabolic engine route on a (2,1)-weakly-typical weight.
    chi = weakly_typical_tilting(W(2, 0, 5), (2, 1))
    assert chi.coeff(NABLA, W(2, 0, 5), (2, 1)) == 1
    for (_, mu), c in chi.terms.items():
        assert c > 0


def test_ranked_engine_matches_weight_route():
    # every p-dominant, p-weakly-typical weight of an integral and a
    # half-integral box at n <= 4, for every composition
    boxes = (frac_box(-3, 3), [Fraction(k, 2) for k in range(-3, 4)])
    checked = 0
    for n in range(1, 5):
        for values in boxes:
            for lam in itertools.product(map(exact, values), repeat=n):
                for p in compositions(n):
                    if is_p_dominant(lam, p) and is_p_weakly_typical(lam, p):
                        got = reference.terms(weakly_typical_tilting(lam, p))
                        assert got == reference.weakly_typical_tilting(lam, p), (lam, p)
                        checked += 1
    assert checked == 5045
    # and a seeded sample at n = 5 and 6, half-integral classes mixed in
    rng = random.Random(56)
    values = [exact(Fraction(k, 2)) for k in range(-6, 7)]
    sampled = 0
    while sampled < 60:
        n = 5 + sampled % 2
        p = rng.choice(list(compositions(n)))
        lam = tuple(rng.choice(values) for _ in range(n))
        if is_p_dominant(lam, p) and is_p_weakly_typical(lam, p):
            got = reference.terms(weakly_typical_tilting(lam, p))
            assert got == reference.weakly_typical_tilting(lam, p), (lam, p)
            sampled += 1


def test_tilting_equals_nabla():
    assert tilting_equals_nabla(W(-1, 1, 5))
    assert not tilting_equals_nabla(W(-1, 1, 0))
    assert tilting_equals_nabla(W(-3, -1, 1))


def test_tilting_equals_nabla_iff_antidominant_weakly_typical():
    box = frac_box(-2, 2)
    for lam in itertools.product(box, repeat=3):
        expected = reference.is_antidominant(lam) and reference.is_p_weakly_typical(lam, B3)
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
    assert reference.terms(chi) == reference.borel_expansion(reference.terms(nabla(W(-1, 1, 5))))
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


def test_engine_invariants_raise_typed_errors(monkeypatch):
    lam = W(-1, 1, 5)
    # the engine reads each multiplicity as a Levi sum of glmult._term
    with monkeypatch.context() as m:
        m.setattr(glmult, "_term", lambda x, y, dense, blocks: 2)
        with pytest.raises(InvariantViolation, match="coefficient 2"):
            weakly_typical_tilting(lam)
    with monkeypatch.context() as m:
        m.setattr(glmult, "_term", lambda x, y, dense, blocks: -1)
        with pytest.raises(InvariantViolation, match=r"\[M\^p_1,-1,-5 : L_1,-1,-5\] = -1 < 0"):
            weakly_typical_tilting(lam)
    assert weakly_typical_tilting(lam).coeff(NABLA, lam) == 1


def test_engine_invariant_fires_under_python_O():
    src = Path(tilting.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from pericat import glmult, tilting\n"
        "from pericat.weights import weight\n"
        "from pericat.weyl import InvariantViolation\n"
        "assert False, 'asserts are stripped under -O'\n"
        "glmult._term = lambda x, y, dense, blocks: 2\n"
        "try:\n"
        "    tilting.weakly_typical_tilting(weight(-1, 1, 5))\n"
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
    assert proc.stdout.startswith("T^p_-1,1,5 (p=(1, 1, 1)) has coefficient 2")
