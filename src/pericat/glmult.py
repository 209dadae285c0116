r"""Composition multiplicities of gl(n) Verma modules, [M_lam : L_mu] and
[M^p_mu : L_lam], as the tilting engine and `pericat mult` read them.  The
labelling is rho-shifted: the Weyl group permutes coordinates (place
action), and M_lam denotes the Verma module of highest weight lam - rho.

The core computation is [M_lam : L_mu].  It factors over integrality
classes of coordinate positions; each integral factor is a Kazhdan-Lusztig
value P_{w0 x, w0 y}(1) where x, y are the longest coset representatives
carrying the nondecreasing (antidominant) orbit base to lam and mu.

One ranking pass serves a whole multiplicity: `linkage._ranks` ranks the
shared multiset (ints on their values, other weights on exact (numerator,
denominator) pairs), and every integrality class, and in [M^p_mu : L_lam]
every Levi element, reads its rank pattern off those ranks.  The row
weight's half of the ranking (its sort, rank map and classes) is held for
the last tuple ranked as row, matched by identity, so a sweep of one row
against many columns ranks the row once.  A pair of one class is a single
KL value, with no split into classes.  A pattern's coset representative
w0 x is one sort of its positions.  The row's own ranks and classes show
whether mu lies in Sigma_p^+, whether or not the pair ranks; the guard
`require_p_dominant` runs only when they cannot.

>>> from .weights import weight
>>> verma_simple_mult(weight(2, 1, 0), weight(0, 1, 2))
1
>>> verma_simple_mult(weight(0, 1, 2), weight(2, 1, 0))
0
"""

from __future__ import annotations

from functools import lru_cache

from . import linkage
from .weights import Parabolic, Weight, _falls, _levi_pairs, format_weight, require_p_dominant
from .weyl import InvariantViolation, apply_perm, kl_eval_one, levi_weyl_group

__all__ = ["verma_simple_mult", "parabolic_verma_simple_mult"]


def _w0_rep(x: tuple) -> tuple:
    """w0 x' for x' the longest permutation carrying sorted(x) to x under
    the place action: the stable sort of the positions of reversed x."""
    return tuple(sorted(range(len(x)), key=x[::-1].__getitem__))


@lru_cache(maxsize=None)
def _integral_mult(x: tuple, y: tuple) -> int:
    """[M_lam : L_mu] = P_{w0 x', w0 y'}(1) inside one integrality class,
    from the dense rank patterns x of lam and y of mu; the cache stays small."""
    return kl_eval_one(_w0_rep(x), _w0_rep(y))


def _class_blocks(y: tuple, keys) -> tuple:
    """(dense, blocks) for the rank tuple y, keys[r] the integrality class
    of rank r: dense[r] is r's place in its class, and blocks holds y's
    positions and dense pattern per class; (None, None) for keys None."""
    if keys is None:
        return None, None
    dense = [keys[:r].count(k) for r, k in enumerate(keys)]
    classes: dict = {}
    for i, r in enumerate(y):
        classes.setdefault(keys[r], []).append(i)
    return dense, [(idx, tuple(dense[y[i]] for i in idx)) for idx in classes.values()]


def _term(x: tuple, y: tuple, dense: list, blocks) -> int:
    """One Borel multiplicity from ranks and their `_class_blocks`, x possibly
    permuted within the classes of positions: the product of class factors."""
    if blocks is None:
        return _integral_mult(x, y)
    total = 1
    for idx, pattern in blocks:
        total *= _integral_mult(tuple(dense[x[i]] for i in idx), pattern)
        if not total:
            return 0
    return total


def _in_sigma(row: tuple, levi) -> bool:
    """Whether the weight of a held row (x, keys, key_x, ...) of
    `linkage._row` lies in Sigma_p^+: along every Levi pair its ranks fall
    and, for several classes, its two positions share a class.  Inside one
    class the ranks follow value order, so these say the coordinates
    differ by a positive integer."""
    x, keys, key_x = row[:3]
    return _falls(x, levi) and (keys is None or all(key_x[i] == key_x[j] for i, j in levi))


def verma_simple_mult(lam: Weight, mu: Weight) -> int:
    """[M_lam : L_mu] for gl(n).

    Zero unless mu rearranges lam within integrality classes of positions;
    otherwise a product of integral-block Kazhdan-Lusztig values."""
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    ranked = linkage._ranks(lam, mu)
    if ranked is None:
        return 0
    x, y, keys = ranked
    if keys is None:  # one class: one Kazhdan-Lusztig value
        return _integral_mult(x, y)
    return _term(x, y, *_class_blocks(y, keys))


def parabolic_verma_simple_mult(mu: Weight, lam: Weight, p: Parabolic) -> int:
    """[M^p_mu : L_lam]: alternating Levi-orbit sum of Borel Verma
    multiplicities.  Requires mu in Sigma_p^+."""
    try:
        if len(lam) != len(mu):
            raise ValueError("dimension mismatch")
        ranked = linkage._ranks(mu, lam)
    except (TypeError, ValueError):  # an error of the guard's comes first
        require_p_dominant(mu, p)
        raise
    # mu's ranks, held since it was ranked, show whether mu lies in Sigma_p^+,
    # also when the pair does not rank; the guard takes every other case
    row = linkage._held[1]
    if not (type(p) is tuple and _in_sigma(row, _levi_pairs(p, len(mu)))):
        require_p_dominant(mu, p)
    if ranked is None:
        return 0
    # each Levi block of a p-dominant mu lies in one integrality class, so
    # every w(mu) has mu's classes by position: one ranking serves all terms
    x, y, keys = ranked
    total = _levi_sum(x, y, *_class_blocks(y, keys), p)
    if total < 0:
        raise InvariantViolation(
            f"[M^p_{format_weight(mu)} : L_{format_weight(lam)}] = {total} < 0 for p={p}"
        )
    return total


def _levi_sum(x: tuple, y: tuple, dense: list, blocks, p: Parabolic) -> int:
    """[M^p_mu : L_lam] from ranks and their `_class_blocks`, x the ranks of
    mu: the alternating sum of `_term` over the Levi orbit of x."""
    total = 0
    for w, lw in levi_weyl_group(p):
        m = _term(apply_perm(w, x), y, dense, blocks)
        total += -m if lw % 2 else m
    return total


if __name__ == "__main__":
    import doctest

    doctest.testmod()
