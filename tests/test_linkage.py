"""Strong linkage, block labels, and the highest-weight edge predicates."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given

import reference
from conftest import (
    W,
    frac_box,
    mixed_weights,
    normalised,
    partial_weight,
    same_block,
)
from pericat.linkage import (
    A_set,
    _ranks,
    block_count,
    block_label,
    canonical_representative,
    cor36_edge,
    strong_down_set,
    strongly_linked,
    thm34_delta_edge,
    thm34_nabla_edge,
    thmA_delta_form,
    thmA_nabla_form,
)
from pericat.weyl import all_perms, apply_perm


def test_strongly_linked_orientation_fixture():
    # The locked orientation: (1,0,2) is reachable from (1,2,0) by a single
    # lowering reflection with positive integral pairing, not conversely.
    assert strongly_linked(W(1, 0, 2), W(1, 2, 0))
    assert not strongly_linked(W(1, 2, 0), W(1, 0, 2))
    lam = W(4, -1, 3)
    assert strongly_linked(lam, lam)


def test_strong_up_set_fixture():
    mu = W(1, -1, 3)
    up = reference.up_set(mu)
    assert up == {W(1, -1, 3), W(3, -1, 1), W(1, 3, -1), W(3, 1, -1)}
    # a strong-linkage step only swaps coordinates: lam runs over mu's rearrangements
    assert {lam for lam in itertools.permutations(mu) if strongly_linked(mu, lam)} == up


def test_down_up_sets_extremes():
    anti = W(-2, 0, 1)
    assert strong_down_set(anti) == {anti}
    dom = W(3, 1, 0)
    assert reference.up_set(dom) == {dom}
    assert [lam for lam in itertools.permutations(dom) if strongly_linked(dom, lam)] == [dom]
    # Non-integral steps never move: a fully incomparable weight is alone.
    alone = W(0, "1/2", "1/3")
    assert strong_down_set(alone) == {alone}
    assert reference.up_set(alone) == {alone}


def test_strongly_linked_partial_order():
    rng = random.Random(7)
    box = frac_box(-3, 3)
    for _ in range(40):
        lam = tuple(rng.choice(box) for _ in range(3))
        down = strong_down_set(lam)
        for mu in down:
            # Antisymmetry via degree-height: strict links strictly lower
            # the sorted tuple in dominance order, so equality means iden-
            # tity; transitivity: everything below mu is below lam.
            if mu != lam:
                assert not strongly_linked(lam, mu)
            for nu in strong_down_set(mu):
                assert strongly_linked(nu, lam)


def test_up_down_adjointness():
    box = frac_box(-2, 2)
    for lam in itertools.product(box, repeat=2):
        for mu in itertools.product(box, repeat=2):
            assert (mu in strong_down_set(lam)) == (lam in reference.up_set(mu))
            assert (mu in strong_down_set(lam)) == strongly_linked(mu, lam)


def test_block_label_fixtures():
    label = block_label(W(2, 1, 0))
    assert label == ((Fraction(0), 3, 1),)
    label = block_label(W(0, "1/2", 1))
    assert set(label) == {(Fraction(0), 2, 1), (Fraction(1, 2), 1, 0)}
    for i in range(4):
        key, size, odd = block_label(partial_weight(i, 3))[0]
        if i <= 3:
            assert (key, size) == (Fraction(0), 3)
            assert odd == i


def test_same_block():
    assert not same_block(W(3, 1, 0), W(1, 1, 1))  # odd counts 2 vs 3
    lam = W(2, -1, 5)
    for q in range(3):
        mu = list(lam)
        mu[q] += 2
        assert same_block(lam, tuple(mu))
        mu[q] -= 4
        assert same_block(lam, tuple(mu))
    for w in all_perms(3):
        assert same_block(lam, apply_perm(w, lam))
    # Classes compare as multisets: the fractional parts may move around.
    assert same_block(W(0, "1/2", 1), W("1/2", 0, 1))


def test_canonical_representative():
    assert canonical_representative(W(4, 7, 0)) == W(1, 0, 0)
    assert canonical_representative(W(0, "1/2", 1)) == W(1, "1/2", 0)
    for i in range(4):
        d = partial_weight(i, 3)
        assert canonical_representative(d) == d
    # Idempotent and constant on blocks.
    lam = W(3, -2, 8)
    rep = canonical_representative(lam)
    assert canonical_representative(rep) == rep
    assert same_block(lam, rep)


@given(mixed_weights)
def test_block_functions_match_floor_scan(lam):
    assert block_label(lam) == reference.block_label(lam)
    assert canonical_representative(lam) == reference.canonical_representative(lam)
    assert normalised(canonical_representative(lam))
    assert normalised([key for key, _, _ in block_label(lam)])


def test_block_functions_normalise_raw_fraction_input():
    # frac_box builds integral coordinates as Fraction(v); the outputs come
    # back as ints all the same
    box = frac_box(-2, 3)
    for lam in itertools.product(box, repeat=3):
        assert normalised(canonical_representative(lam)), lam
        assert all(type(key) is int for key, _, _ in block_label(lam)), lam
    half = (Fraction(1, 2), Fraction(3), Fraction(-3, 2))
    assert canonical_representative(half) == W("1/2", 1, "1/2")
    assert normalised(canonical_representative(half))


# each entry point with arguments holding the float coordinate 1.5
_FLOAT_CASES = [
    *(
        (entry, ((1.5, 0),))
        for entry in (strong_down_set, block_label, canonical_representative)
    ),
    (strongly_linked, ((1.5, 0), (0, 1.5))),
    (thm34_nabla_edge, ((1.5, 0), 1, (1, 1))),
    (cor36_edge, ((1.5, 0.5, 0), 1)),
]


@pytest.mark.parametrize(
    "entry, args",
    [pytest.param(entry, args, id=entry.__name__) for entry, args in _FLOAT_CASES]
    # equal weights get no answer before the refusal either
    + [pytest.param(strongly_linked, ((1.5, 0), (1.5, 0)), id="strongly_linked_equal")],
)
def test_linkage_refuses_float_coordinates(entry, args):
    with pytest.raises(TypeError, match="weight coordinate 1.5 is not exact"):
        entry(*args)


# each entry point with arguments holding True, which equals and hashes like 1
_BOOL_CASES = [
    (strongly_linked, ((0, True), (True, 0))),
    (strong_down_set, ((True, 0),)),
    (thm34_nabla_edge, ((True, 0), 1, (1, 1))),
    (cor36_edge, ((2, True, 0), 1)),
    (block_label, ((True, 0),)),
    (canonical_representative, ((True, 2),)),
]


@pytest.mark.parametrize(
    "entry, args", [pytest.param(entry, args, id=entry.__name__) for entry, args in _BOOL_CASES]
)
def test_linkage_refuses_bool_coordinates(entry, args):
    with pytest.raises(TypeError, match="weight coordinate True is not exact"):
        entry(*args)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_int_ranking_matches_pair_ranking(n):
    # weights of ints alone are ranked on their values; the same weights
    # with every coordinate a raw Fraction take the pair path, which must
    # give the same ranks and the same one-class verdict
    box = list(itertools.product((-1, 0, 1, 2), repeat=n))
    raw = {lam: tuple(map(Fraction, lam)) for lam in box}
    ranked = 0
    for lam in box:
        assert _ranks(lam, lam) == _ranks(raw[lam], raw[lam]), lam
        for mu in box:
            got = _ranks(lam, mu)
            assert got == _ranks(raw[lam], raw[mu]), (lam, mu)
            ranked += got is not None
    assert ranked == sum(len(set(itertools.permutations(lam))) for lam in box)


def test_ranked_closure_matches_weight_bfs():
    # seeded weights of rank <= 6 mixing integral, half- and third-integral
    # classes, with repeats; the ranked walk maps back to the same sets, and
    # strongly_linked agrees with membership of the weight BFS's down-set
    rng = random.Random(2024)
    values = frac_box(-3, 3) + [Fraction(k, 2) for k in (-3, -1, 1, 3)] + [Fraction(1, 3)]
    seen = dict.fromkeys(["member", "outside", "mismatch", "multiset", "length"], 0)
    for _ in range(300):
        lam = tuple(rng.choice(values) for _ in range(rng.randint(1, 6)))
        down = reference.down_set(lam)
        assert strong_down_set(lam) == down, lam
        mus = [("member", m) for m in rng.sample(sorted(down), min(3, len(down)))]
        for _ in range(4):
            mu = list(lam)
            rng.shuffle(mu)
            mu = tuple(mu)
            if mu in down:
                continue
            same = all(Fraction(a - b).denominator == 1 for a, b in zip(lam, mu))
            mus.append(("outside" if same else "mismatch", mu))
        i = rng.randrange(len(lam))
        mus.append(("multiset", lam[:i] + (lam[i] + 1,) + lam[i + 1 :]))
        mus.append(("length", lam + (lam[0],)))
        for kind, mu in mus:
            assert strongly_linked(mu, lam) == (mu in down), (kind, lam, mu)
            seen[kind] += 1
    assert min(seen.values()) >= 50, seen


def test_block_count():
    assert block_count((3,)) == 4
    assert block_count((2, 1)) == 6
    assert block_count((1, 1, 1)) == 8
    assert block_count((2, 2)) == 9


def test_a_set():
    assert A_set(W(2, 2, 0), 1) == {1, 2}
    assert A_set(W(2, 1, 0), 3) == {3}
    assert A_set(W(1, 1, 1), 2) == {2, 3}


def test_thm34_nabla_edge():
    b = (1, 1, 1)
    assert thm34_nabla_edge(W(2, 1, 0), 3, b)
    assert not thm34_nabla_edge(W(2, 1, 0), 1, b)
    assert thm34_nabla_edge(W(2, 2, 0), 1, b)
    # For the Borel every weight lies in Sigma_p^+; a proper parabolic
    # rejects weights violating Levi dominance.
    assert thm34_nabla_edge(W(0, 1, 2), 3, b) in (True, False)
    with pytest.raises(ValueError):
        thm34_nabla_edge(W(0, 1, 2), 1, (2, 1))


def test_thm34_delta_edge():
    p21 = (2, 1)
    assert thm34_delta_edge(W(1, 0, -5), 1, p21)
    assert not thm34_delta_edge(W(1, 0, 1), 1, p21)  # A_1 = {1,3}
    for lam in (W(2, 1, 0), W(1, 0, -5)):
        assert not thm34_delta_edge(lam, 1, (1, 1, 1))  # no Levi roots


def test_cor36_edge():
    assert cor36_edge(W(1, 0, -3), 1)
    assert not cor36_edge(W(0, 1, 0), 1)
    assert not cor36_edge(W(2, 1, 1), 2)
    with pytest.raises(ValueError):
        cor36_edge(W(1, 0), 1)


def test_hypothesis_forms_spot_agreement():
    # Exhaustive cross-check runs in the acceptance suite; spot-check the
    # same predicates here on a few p-dominant weights.
    cases = [
        ((1, 1, 1), W(2, 1, 0)),
        ((1, 1, 1), W(2, 2, 0)),
        ((2, 1), W(1, 0, -5)),
        ((2, 1), W(2, 0, 1)),
        ((2, 1), W(1, 0, 1)),
    ]
    for p, lam in cases:
        n = len(lam)
        for q in range(1, n + 1):
            assert thm34_nabla_edge(lam, q, p) == thmA_nabla_form(lam, q, p)
        for i in range(1, n):
            assert thm34_delta_edge(lam, i, p) == thmA_delta_form(lam, i, p)


def test_block_label_whole_orbit_invariance():
    rng = random.Random(11)
    values = frac_box(-6, 6) + [Fraction(1, 2), Fraction(3, 2), Fraction(-1, 3)]
    for _ in range(200):
        n = rng.choice([2, 3, 4])
        lam = tuple(rng.choice(values) for _ in range(n))
        lab = block_label(lam)
        for w in all_perms(n):
            assert block_label(apply_perm(w, lam)) == lab or same_block(
                lam, apply_perm(w, lam)
            )
        q = rng.randrange(n)
        mu = list(lam)
        mu[q] += 2
        assert same_block(lam, tuple(mu))
