"""Symmetric-group utilities and Kazhdan-Lusztig polynomials.

The KL recursion is validated against an independent oracle first: the
R-polynomial family (its own recursion) plus the inversion identity

    q^(l(w)-l(x)) * P_{x,w}(1/q)  =  sum_{x <= z <= w} R_{x,z} * P_{z,w}

which, together with the degree bound deg P < (l(w)-l(x))/2, characterizes
the KL family.  Only after that identity is established do we freeze
small-rank facts (all S3 polynomials trivial; the S4 count of 1+q pairs).
"""

import contextlib
import functools
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import W, compose
from pericat import weyl
from pericat.cli import main
from pericat.weyl import (
    ONE_POLY,
    ZERO_POLY,
    InvariantViolation,
    all_perms,
    apply_perm,
    bruhat_leq,
    format_poly,
    inverse,
    kl_eval_one,
    kl_polynomial,
    left_descents,
    left_mult,
    length,
    parabolic_longest,
    parse_perm,
    poly_add,
    poly_eval,
    poly_mul,
    poly_scale,
    poly_shift,
    poly_sub,
    poly_trim,
    r_polynomial,
)


def poly_reverse(a, top: int):
    """q^top * a(1/q); requires deg a <= top."""
    assert len(a) - 1 <= top
    out = [0] * (top + 1)
    for i, c in enumerate(a):
        out[top - i] = c
    return poly_trim(out)


def mu_coefficient(z, w) -> int:
    """Coefficient of q^((l(w)-l(z)-1)/2) in P_{z,w}, zero unless that is an
    integer exponent."""
    gap = length(w) - length(z)
    p = kl_polynomial(z, w)
    if gap <= 0 or gap % 2 == 0 or (gap - 1) // 2 >= len(p):
        return 0
    return p[(gap - 1) // 2]


def _check_inversion_identity(n: int) -> int:
    """Assert the P/R inversion identity for every pair in S_n; returns the
    number of pairs checked.  The intervals [x, w] come from the up-set of x
    and the down-set of w, each found once with plain ``bruhat_leq``."""
    perms = all_perms(n)
    up = {x: [z for z in perms if bruhat_leq(x, z)] for x in perms}
    down = {w: {z for z in perms if bruhat_leq(z, w)} for w in perms}
    checked = 0
    for x in perms:
        for w in perms:
            if x not in down[w]:
                assert kl_polynomial(x, w) == ()
                assert r_polynomial(x, w) == ()
                continue
            top = length(w) - length(x)
            lhs = poly_reverse(kl_polynomial(x, w), top)
            rhs = ()
            for z in up[x]:
                if z in down[w]:
                    rhs = poly_add(
                        rhs, poly_mul(r_polynomial(x, z), kl_polynomial(z, w))
                    )
            assert lhs == rhs, (x, w, lhs, rhs)
            checked += 1
    return checked


def _bruhat_leq_rank_matrix(x, w) -> bool:
    """Independent comparability oracle: Ehresmann's tableau criterion
    (x <= w iff every upper-left rank count of x is dominated by w's)."""
    n = len(x)
    for i in range(n):
        for k in range(n):
            rx = sum(1 for a in range(i + 1) if x[a] >= k)
            rw = sum(1 for a in range(i + 1) if w[a] >= k)
            if rx > rw:
                return False
    return True


def test_oracle_bruhat_against_rank_matrix():
    for n in (2, 3, 4):
        for x in all_perms(n):
            for w in all_perms(n):
                assert bruhat_leq(x, w) == _bruhat_leq_rank_matrix(x, w)


def test_oracle_inversion_identity_s3():
    assert _check_inversion_identity(3) == 19


def test_oracle_inversion_identity_s4():
    # 213 Bruhat-comparable pairs in S4 (cross-checked by the rank-matrix
    # oracle above).
    assert _check_inversion_identity(4) == 213


def test_oracle_inversion_identity_s5():
    assert _check_inversion_identity(5) == 3781


class _ReferenceRecursion:
    """The KL recursion as it was before the per-rank index, kept as a
    reference: the same body with its own memo, on plain ``length``,
    ``inverse`` and ``bruhat_leq`` (memoized here only for speed)."""

    def __init__(self):
        self.memo = {}
        self.length = functools.lru_cache(maxsize=None)(length)
        self.inverse = functools.lru_cache(maxsize=None)(inverse)
        self.bruhat_leq = functools.lru_cache(maxsize=None)(bruhat_leq)

    def mu(self, z, w):
        gap = self.length(w) - self.length(z)
        if gap <= 0 or gap % 2 == 0:
            return 0
        p = self.kl(z, w)
        exponent = (gap - 1) // 2
        return p[exponent] if exponent < len(p) else 0

    def kl(self, x, w):
        length, inverse, bruhat_leq = self.length, self.inverse, self.bruhat_leq
        if x == w:
            return ONE_POLY
        if not bruhat_leq(x, w):
            return ZERO_POLY
        descents = left_descents(w)
        changed = True
        while changed:
            changed = False
            for i in descents:
                sx = left_mult(i, x)
                if length(sx) > length(x):
                    x = sx
                    changed = True
        if x == w:
            return ONE_POLY
        key = (x, w)
        cached = self.memo.get(key)
        if cached is not None:
            return cached
        s = descents[0]
        v = left_mult(s, w)
        sx = left_mult(s, x)
        result = poly_add(self.kl(sx, v), poly_shift(self.kl(x, v), 1))
        lw = length(w)
        for z in all_perms(len(w)):
            lz = length(z)
            if lz >= length(v) or (lw - lz) % 2 != 0:
                continue
            if inverse(z)[s] <= inverse(z)[s + 1]:
                continue
            if not (bruhat_leq(x, z) and bruhat_leq(z, v)):
                continue
            m = self.mu(z, v)
            if m == 0:
                continue
            result = poly_sub(
                result, poly_shift(poly_scale(m, self.kl(x, z)), (lw - lz) // 2)
            )
        self.memo[key] = result
        return result


def _s6_sample(rng: random.Random, count: int) -> list:
    """Thirds of: uniform pairs (mostly non-comparable), w within two simple
    swaps of w0 with x uniform, and x a few inversion-removing swaps below w."""
    perms = all_perms(6)
    pairs = []
    for k in range(count):
        if k % 3 == 0:
            pairs.append((rng.choice(perms), rng.choice(perms)))
        elif k % 3 == 1:
            w = [5, 4, 3, 2, 1, 0]
            for _ in range(rng.randint(0, 2)):
                i = rng.randrange(5)
                w[i], w[i + 1] = w[i + 1], w[i]
            pairs.append((rng.choice(perms), tuple(w)))
        else:
            w = rng.choice(perms)
            x = list(w)
            for _ in range(rng.randint(1, 6)):
                i, j = sorted(rng.sample(range(6), 2))
                if x[i] > x[j]:
                    x[i], x[j] = x[j], x[i]
            pairs.append((tuple(x), w))
    return pairs


def test_oracle_kl_matches_reference_recursion():
    reference = _ReferenceRecursion()
    for x in all_perms(5):
        for w in all_perms(5):
            assert kl_polynomial(x, w) == reference.kl(x, w), (x, w)
    pairs = _s6_sample(random.Random(2020), 2100)
    results = [kl_polynomial(x, w) for x, w in pairs]
    assert results == [reference.kl(x, w) for x, w in pairs]
    # The sample reaches every branch: non-comparable, trivial, non-trivial.
    assert sum(p == () for p in results) > 300
    assert sum(p == (1,) for p in results) > 300
    assert sum(len(p) > 1 for p in results) > 100
    assert sum(length(w) >= 13 for _, w in pairs) >= 700


@contextlib.contextmanager
def _poisoned_memo(x, w, bad):
    """Fill the memo with P_{x,w}'s sub-entries all replaced by ``bad`` and
    P_{x,w} itself removed, so the next call recomputes it from them."""
    memo = weyl._rank_index(len(w)).kl
    saved = dict(memo)
    memo.clear()
    kl_polynomial(x, w)
    target = list(memo)[-1]  # stored last, after its recursion returned
    memo.update(dict.fromkeys(memo, bad))
    del memo[target]
    try:
        yield
    finally:
        memo.clear()
        memo.update(saved)


# P_{e,w} = 1 + q, and its recursion reads memo entries.  The recursion of
# (e, 3412) in S_4 reaches only pairs the degree bound answers, so reads none.
E5, W24513 = (0, 1, 2, 3, 4), parse_perm("2,4,5,1,3")


def _index_from_definitions(n: int) -> dict:
    """The ``_RankIndex`` tables built per permutation from the definitions:
    ``length``, the bits of ``left_descents``, the position of ``left_mult``
    and the packed rank matrix r_w(i, j) = #{a < i : w(a) >= j}, 1 <= i, j < n,
    with entry (i, j) in field (i-1)(n-1) + j-1 of ``bits`` + 1 bits."""
    perms = all_perms(n)
    position = {w: k for k, w in enumerate(perms)}
    width = (n - 1).bit_length() + 1
    lengths = [length(w) for w in perms]
    keys = [
        sum(
            sum(1 for a in range(i) if w[a] >= j) << ((i - 1) * (n - 1) + j - 1) * width
            for i in range(1, n)
            for j in range(1, n)
        )
        for w in perms
    ]
    by_length = [[[] for _ in range(n * (n - 1) // 2 + 1)] for _ in range(n - 1)]
    for k, w in enumerate(perms):
        for i in left_descents(w):
            by_length[i][lengths[k]].append(k)
    return {
        "perms": perms,
        "position": position,
        "length": lengths,
        "descents": [sum(1 << i for i in left_descents(w)) for w in perms],
        "left": [[position[left_mult(i, w)] for w in perms] for i in range(n - 1)],
        "key": keys,
        "by_length": by_length,
    }


@pytest.mark.parametrize("n", range(8))
def test_rank_index_matches_definitions(n):
    index = weyl._RankIndex(n)
    for name, table in _index_from_definitions(n).items():
        assert getattr(index, name) == table, name


def _bruhat_sample(n: int, rng: random.Random, count: int) -> list:
    """Pairs of S_n: x a few inversion-removing swaps below w (comparable),
    half of them then moved by one more swap (near misses), and every third
    w ending in 0, so that its field r_w(n-1, 1) holds n - 1."""
    pairs = []
    for k in range(count):
        w = list(rng.sample(range(n), n))
        if k % 3 == 0:
            w.remove(0)
            w.append(0)
        x = list(w)
        for _ in range(rng.randint(0, n)):
            i, j = sorted(rng.sample(range(n), 2))
            if x[i] > x[j]:
                x[i], x[j] = x[j], x[i]
        if k % 2:
            i, j = rng.sample(range(n), 2)
            x[i], x[j] = x[j], x[i]
        pairs.append((tuple(x), tuple(w)))
    return pairs


@pytest.mark.parametrize("n", range(1, 9))
def test_rank_index_leq_matches_bruhat_leq(n):
    index = weyl._RankIndex(n)
    if n <= 5:
        pairs = list(itertools.product(all_perms(n), repeat=2))
    else:
        pairs = _bruhat_sample(n, random.Random(n), 3000)
    got = [index.leq(index.position[x], index.position[w]) for x, w in pairs]
    assert got == [bruhat_leq(x, w) for x, w in pairs]
    if n >= 6:
        # Both verdicts are common, and fields at n - 1 meet in comparable pairs.
        assert min(sum(got), len(got) - sum(got)) > 300
        assert any(ok and x[-1] == w[-1] == 0 for ok, (x, w) in zip(got, pairs))


def test_kl_memo_holds_normalised_pairs_s5():
    # A pair is normalised when every left descent of w is one of x; the
    # memo keeps exactly those x < w with l(w) - l(x) >= 3.
    perms = all_perms(5)
    expected = {
        (x, w)
        for x in perms
        for w in perms
        if bruhat_leq(x, w)
        and length(w) - length(x) >= 3
        and set(left_descents(w)) <= set(left_descents(x))
    }
    index = weyl._RankIndex(5)
    for x in range(index.size):
        for w in range(index.size):
            index.poly(x, w)
    assert {divmod(key, index.size) for key in index.kl} == {
        (index.position[x], index.position[w]) for x, w in expected
    }


def test_kl_degree_bound_answers_gap_two_or_less_s5():
    # Comparable pairs of gap <= 2 are 1 and add no memo entry; the bound
    # waits for the Bruhat test, so an incomparable pair of gap 2 stays 0.
    x, w = (1, 0, 2, 3), (0, 3, 2, 1)
    assert length(w) - length(x) == 2 and not bruhat_leq(x, w)
    assert kl_polynomial(x, w) == ZERO_POLY
    index = weyl._RankIndex(5)
    comparable = 0
    for x in all_perms(5):
        for w in all_perms(5):
            if length(w) - length(x) <= 2:
                leq = bruhat_leq(x, w)
                p = index.poly(index.position[x], index.position[w])
                assert p == (ONE_POLY if leq else ZERO_POLY), (x, w)
                comparable += leq
    assert comparable > 0 and index.kl == {}


def test_kl_smallest_ranks():
    e, s = (0, 1), (1, 0)
    answers = {((), ()): 1, ((0,), (0,)): 1, (e, e): 1, (e, s): 1, (s, e): 0, (s, s): 1}
    for (x, w), leq in answers.items():
        assert kl_polynomial(x, w) == (ONE_POLY if leq else ZERO_POLY), (x, w)
        index = weyl._RankIndex(len(w))
        assert index.leq(index.position[x], index.position[w]) == leq, (x, w)


def test_kl_invariant_violation_is_typed():
    with _poisoned_memo(E5, W24513, (2,)):
        with pytest.raises(InvariantViolation, match="malformed"):
            kl_polynomial(E5, W24513)
    with _poisoned_memo(E5, W24513, (1, 0, 0, 1)):
        with pytest.raises(InvariantViolation, match="degree bound"):
            kl_polynomial(E5, W24513)
    assert issubclass(InvariantViolation, ValueError)
    assert kl_polynomial(E5, W24513) == (1, 1)


def test_kl_invariant_violation_cli_exit_1(capsys):
    with _poisoned_memo(E5, W24513, (2,)):
        assert main(["kl", "--x", "1,2,3,4,5", "--w", "2,4,5,1,3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: KL polynomial malformed")


def test_kl_invariant_violation_under_python_O():
    tests = Path(__file__).resolve().parent
    src = Path(weyl.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "from test_weyl import E5, W24513, _poisoned_memo\n"
        "from pericat.cli import main\n"
        "with _poisoned_memo(E5, W24513, (2,)):\n"
        "    sys.exit(main(['kl', '--x', '1,2,3,4,5', '--w', '2,4,5,1,3']))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: KL polynomial malformed")
    assert "Traceback" not in proc.stderr


def test_oracle_r_polynomial_basics():
    for n in (2, 3, 4):
        for x in all_perms(n):
            for w in all_perms(n):
                r = r_polynomial(x, w)
                if x == w:
                    assert r == (1,)
                elif not bruhat_leq(x, w):
                    assert r == ()
                else:
                    # deg R = l(w) - l(x); R(1) = 0 for x < w.
                    assert len(r) - 1 == length(w) - length(x)
                    assert poly_eval(r, 1) == 0


def test_s3_kl_polynomials_all_trivial():
    for x in all_perms(3):
        for w in all_perms(3):
            expected = (1,) if bruhat_leq(x, w) else ()
            assert kl_polynomial(x, w) == expected


def test_s4_kl_polynomials_nontrivial_pairs():
    nontrivial = {}
    for x in all_perms(4):
        for w in all_perms(4):
            p = kl_polynomial(x, w)
            if p not in ((), (1,)):
                nontrivial[(x, w)] = p
    # Exactly six pairs have P = 1 + q and nothing bigger occurs in S4.
    assert all(p == (1, 1) for p in nontrivial.values())
    assert len(nontrivial) == 6
    # The two singular w are 3412 and 4231 (one-line notation).
    w3412 = parse_perm("3,4,1,2")
    w4231 = parse_perm("4,2,3,1")
    expected = {
        (parse_perm("1,2,3,4"), w3412),
        (parse_perm("1,3,2,4"), w3412),
        (parse_perm("1,2,3,4"), w4231),
        (parse_perm("1,2,4,3"), w4231),
        (parse_perm("2,1,3,4"), w4231),
        (parse_perm("2,1,4,3"), w4231),
    }
    assert set(nontrivial) == expected


def test_kl_invariants_s4():
    perms = all_perms(4)
    w0 = (3, 2, 1, 0)
    for x in perms:
        assert kl_polynomial(x, x) == (1,)
        assert kl_polynomial(x, w0) == (1,)
        for w in perms:
            p = kl_polynomial(x, w)
            assert p == kl_polynomial(inverse(x), inverse(w))
            if p and x != w:
                assert 2 * (len(p) - 1) <= length(w) - length(x) - 1


def test_mu_coefficient():
    # mu(z, w) is the top coefficient when the degree bound is tight.
    e = (0, 1, 2, 3)
    assert mu_coefficient(e, parse_perm("2,1,3,4")) == 1  # P = 1, gap 1
    assert mu_coefficient(e, parse_perm("3,4,1,2")) == 0  # gap 4, even
    assert mu_coefficient(parse_perm("1,3,2,4"), parse_perm("3,4,1,2")) == 1
    assert mu_coefficient(parse_perm("2,1,4,3"), parse_perm("4,2,3,1")) == 1
    assert mu_coefficient(parse_perm("2,1,3,4"), parse_perm("3,4,1,2")) == 0


def test_kl_eval_one():
    assert kl_eval_one((0, 1, 2, 3), parse_perm("3,4,1,2")) == 2
    assert kl_eval_one((0, 1, 2), (2, 1, 0)) == 1


def test_apply_and_reflect_fixtures():
    s1 = (1, 0, 2)
    assert apply_perm(s1, W(1, 0, 2)) == W(0, 1, 2)
    assert apply_perm((0, 1, 2), W(1, 0, 2)) == W(1, 0, 2)
    assert apply_perm((2, 1, 0), W(2, 1, 0)) == W(0, 1, 2)
    # a transposition acts as the reflection in e_i - e_j
    assert apply_perm((0, 2, 1), W(1, 2, 0)) == W(1, 0, 2)
    assert apply_perm((2, 1, 0), W(1, 0, -1)) == W(-1, 0, 1)
    lam = W(3, 3, 1)
    assert apply_perm(s1, lam) == lam  # pairing 0 fixed point


def test_apply_is_group_action():
    perms = all_perms(3)
    lam = W(5, -1, 2)
    for w in perms:
        for v in perms:
            assert apply_perm(w, apply_perm(v, lam)) == apply_perm(compose(w, v), lam)
        assert apply_perm((1, 0, 2), apply_perm((1, 0, 2), lam)) == lam


def test_length_longest_parabolic():
    assert length((0, 1, 2, 3)) == 0
    assert length((2, 1, 0)) == 3
    assert parabolic_longest((2, 1)) == parse_perm("2,1,3")
    assert parabolic_longest((1, 1, 1)) == (0, 1, 2)
    assert parabolic_longest((4,)) == (3, 2, 1, 0)


def test_bruhat_order():
    e, w0 = (0, 1, 2), (2, 1, 0)
    for w in all_perms(3):
        assert bruhat_leq(e, w)
        assert bruhat_leq(w, w0)
    assert not bruhat_leq(w0, e)
    # Antisymmetry on S4 sample.
    for x, w in itertools.combinations(all_perms(4), 2):
        assert not (bruhat_leq(x, w) and bruhat_leq(w, x))


def test_perm_text_round_trip():
    for text in ("2,1,3", "1,2,3,4", "3,1,2"):
        assert ",".join(str(v + 1) for v in parse_perm(text)) == text
    with pytest.raises(ValueError):
        parse_perm("2,2,1")


def test_format_poly():
    assert format_poly((1, 1)) == "1+q^1"
    assert format_poly((1,)) == "1"
    assert format_poly(()) == "0"
