r"""Composition multiplicities for gl(n) Verma modules, in the rho-shifted
labelling where the Weyl group permutes coordinates (place action) and the
weight M_lam denotes the Verma module of highest weight lam - rho.

The core computation is [M_lam : L_mu].  It factors over integrality
classes of coordinate positions; each integral factor is a Kazhdan-Lusztig
value P_{w0 x, w0 y}(1) where x, y are the longest coset representatives
carrying the nondecreasing (antidominant) orbit base to lam and mu.

`oracle_verma_mult_small` recomputes the n <= 3 answer from scratch by a
different route (breadth-first strong linkage; every multiplicity there is
0 or 1), and is used to cross-check the Kazhdan-Lusztig path in tests.

>>> from .weights import weight
>>> verma_simple_mult(weight(2, 1, 0), weight(0, 1, 2))
1
>>> verma_simple_mult(weight(0, 1, 2), weight(2, 1, 0))
0
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from typing import Optional

from .characters import EVEN_VERMA, FormalChar, char_sum, levi_weyl_group
from .linkage import strong_down_set, strongly_linked
from .weights import (
    Parabolic,
    Weight,
    borel,
    format_weight,
    is_integer,
    reflect_coords,
    require_p_dominant,
)
from .weyl import InvariantViolation, apply_perm, compose, kl_eval_one, longest_element

__all__ = [
    "jantzen_sum",
    "verma_simple_mult",
    "parabolic_verma_simple_mult",
    "oracle_verma_mult_small",
    "simple_in_verma_basis",
    "max_coset_rep",
]


def even_verma(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    return FormalChar.single(EVEN_VERMA, lam, p or borel(len(lam)))


def jantzen_sum(lam: Weight) -> FormalChar:
    """Sum of ch M_{s_beta lam} over positive even roots with
    positive-integer pairing against lam (the classical sum formula's
    right-hand side at level one).

    >>> from .weights import format_weight, weight
    >>> sorted(format_weight(mu) for (_, mu) in jantzen_sum(weight(2, 1, 0)).terms)
    ['0,1,2', '1,2,0', '2,0,1']
    """
    n = len(lam)
    out: dict = {}
    for i in range(n):
        for j in range(i + 1, n):
            c = lam[i] - lam[j]
            if is_integer(c) and c > 0:
                mu = reflect_coords(lam, i, j)
                key = mu
                out[key] = out.get(key, 0) + 1
    return char_sum(
        coeff * even_verma(mu, borel(n)) for mu, coeff in out.items()
    )


def max_coset_rep(mu: Weight, nu: Weight) -> tuple:
    """The longest permutation w with w(nu) = mu under the place action,
    for nu nondecreasing.  (Shorter representatives differ by stabilizer
    elements permuting equal coordinates.)"""
    n = len(nu)
    positions: dict = defaultdict(list)
    for i, v in enumerate(nu):
        positions[v].append(i)
    taken = defaultdict(int)
    w = [0] * n
    for j, v in enumerate(mu):
        i = positions[v][taken[v]]
        taken[v] += 1
        w[i] = j
    x_min = tuple(w)
    reverser = [0] * n
    for block in positions.values():
        for a, b in zip(block, reversed(block)):
            reverser[a] = b
    return compose(x_min, tuple(reverser))


@lru_cache(maxsize=None)
def _integral_mult(lam: tuple, mu: tuple) -> int:
    """[M_lam : L_mu] for mutually integral coordinates, same multiset.

    The value depends only on the relative order of the coordinates, so
    callers pass rank patterns and the cache stays small."""
    n = len(lam)
    nu = tuple(sorted(lam))
    x = max_coset_rep(lam, nu)
    y = max_coset_rep(mu, nu)
    w0 = longest_element(n)
    return kl_eval_one(compose(w0, x), compose(w0, y))


def _exact_pairs(lam: Weight) -> list:
    """The coordinates as exact (numerator, denominator) pairs: int tuples
    compare and hash far faster than Fractions."""
    return [(c.numerator, c.denominator) for c in lam]


def verma_simple_mult(lam: Weight, mu: Weight) -> int:
    """[M_lam : L_mu] for gl(n).

    Zero unless mu rearranges lam within integrality classes of positions;
    otherwise a product of integral-block Kazhdan-Lusztig values."""
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    return _pair_mult(_exact_pairs(lam), _exact_pairs(mu))


def _pair_mult(lam_q: list, mu_q: list) -> int:
    """verma_simple_mult on `_exact_pairs` coordinates.  Two coordinates
    differ by an integer exactly when they share the class key
    (numerator % denominator, denominator), and inside a class the
    numerators order as the values do."""
    # nonzero multiplicity forces equal sub-multisets in every integrality
    # class, hence equal multisets overall
    if sorted(lam_q) != sorted(mu_q):
        return 0
    classes: dict = defaultdict(list)
    for i, (a, d) in enumerate(lam_q):
        classes[a % d, d].append(i)
    total = 1
    for (r, d), idx in classes.items():
        if any(mu_q[i][1] != d or mu_q[i][0] % d != r for i in idx):
            return 0  # some lam_i - mu_i is not an integer
        sub_lam = [lam_q[i][0] for i in idx]
        sub_mu = [mu_q[i][0] for i in idx]
        if sorted(sub_lam) != sorted(sub_mu):
            return 0
        rank = {v: k for k, v in enumerate(sorted(set(sub_lam)))}
        total *= _integral_mult(
            tuple(rank[v] for v in sub_lam), tuple(rank[v] for v in sub_mu)
        )
        if total == 0:
            return 0
    return total


def parabolic_verma_simple_mult(mu: Weight, lam: Weight, p: Parabolic) -> int:
    """[M^p_mu : L_lam]: alternating Levi-orbit sum of Borel Verma
    multiplicities.  Requires mu in Sigma_p^+."""
    require_p_dominant(mu, p)
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    mu_q, lam_q = _exact_pairs(mu), _exact_pairs(lam)
    if sorted(mu_q) != sorted(lam_q):
        return 0  # every orbit term w(mu) has mu's multiset, so each is 0
    total = 0
    for w, lw in levi_weyl_group(p):
        total += (-1) ** lw * _pair_mult(apply_perm(w, mu_q), lam_q)
    if total < 0:
        raise InvariantViolation(
            f"[M^p_{format_weight(mu)} : L_{format_weight(lam)}] = {total} < 0 for p={p}"
        )
    return total


def oracle_verma_mult_small(lam: Weight, mu: Weight) -> int:
    """Independent recomputation of [M_lam : L_mu] for n <= 3, where every
    nonzero multiplicity is 1: a breadth-first strong-linkage test."""
    if len(lam) > 3:
        raise ValueError("oracle only covers n <= 3")
    return 1 if strongly_linked(mu, lam) else 0


def simple_in_verma_basis(lam: Weight, _memo: Optional[dict] = None) -> FormalChar:
    """ch L_lam as an integer combination of ch M_mu (gl(n)), by inverting
    the multiplicity triangle over the strong-linkage down-set.

    >>> from .weights import weight
    >>> simple_in_verma_basis(weight(1, 0)) == (
    ...     even_verma(weight(1, 0)) - even_verma(weight(0, 1))
    ... )
    True
    """
    memo = _memo if _memo is not None else {}
    lam = tuple(lam)
    if lam in memo:
        return memo[lam]
    out = even_verma(lam)
    for mu in strong_down_set(lam):
        if mu == lam:
            continue
        m = verma_simple_mult(lam, mu)
        if m:
            out = out - m * simple_in_verma_basis(mu, memo)
    memo[lam] = out
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
