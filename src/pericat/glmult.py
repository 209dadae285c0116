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
every Levi element, reads its rank pattern off those ranks.  A sweep goes
row by row, so the last row's half is held, matched by identity: its ranks
in `linkage._row`, its positions and pattern per class in `_held` and, for
the last p asked, its p-dominance verdict and Levi images.  A call does the
column's half: its ranks, its pattern per class and the `_integral_mult`
lookups, whose misses read the KL rank index directly.  The tilting engine
fixes the column and walks rows, through `_class_blocks` and `_levi_sum`.

>>> from .weights import weight
>>> verma_simple_mult(weight(2, 1, 0), weight(0, 1, 2))
1
>>> verma_simple_mult(weight(0, 1, 2), weight(2, 1, 0))
0
"""

from __future__ import annotations

from functools import lru_cache

from . import linkage
from .weights import Parabolic, Weight, _falls, _levi_pairs, _parts, format_weight, require_p_dominant
from .weyl import InvariantViolation, _rank_index, apply_perm, levi_weyl_group

__all__ = ["verma_simple_mult", "parabolic_verma_simple_mult"]


@lru_cache(maxsize=None)
def _w0_rep(x: tuple) -> tuple:
    """w0 x' for x' the longest permutation carrying sorted(x) to x under
    the place action: the stable sort of the positions of reversed x."""
    return tuple(sorted(range(len(x)), key=x[::-1].__getitem__))


@lru_cache(maxsize=None)
def _integral_mult(x: tuple, y: tuple) -> int:
    """[M_lam : L_mu] = P_{w0 x', w0 y'}(1) inside one integrality class, from the dense
    rank patterns x of lam and y of mu, read unchecked; the cache stays small."""
    index = _rank_index(len(x))
    return sum(index.poly(index.position[_w0_rep(x)], index.position[_w0_rep(y)]))


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


_NO_P = object()  # the p of a held row that no parabolic has asked for yet
_held: tuple = (None, None, None, None, _NO_P, None)  # (linkage._row, dense, classes, patterns, p, images)


def _columns(dense, classes, y: tuple):
    """The dense pattern of the ranks y per class (classes None: one class)."""
    return (y,) if classes is None else [tuple([dense[y[i]] for i in idx]) for idx in classes]


def _hold(row: tuple, mu: Weight = None, p: Parabolic = _NO_P) -> tuple:
    """`_held` for the `linkage._row` row of mu.  A new row brings its ranks x's
    `_class_blocks`: the positions and x's pattern per class.  A new p, checked by
    `_parts`, brings ((-1)^l(w), the patterns of w(x)) per Levi element w, once mu lies in
    Sigma_p^+: x falls along each Levi pair, whose positions share a class, or the guard
    passes.  Each Levi block then lies in one class, so every w(x) has x's classes."""
    global _held
    x, keys, key_x = row[:3]
    if _held[0] is not row:
        dense, blocks = _class_blocks(x, keys)
        classes = blocks and [idx for idx, _ in blocks]
        _held = (row, dense, classes, _columns(dense, classes, x), _NO_P, None)
    if p is not _NO_P and p is not _held[4]:
        _parts(p)
        levi = _levi_pairs(p, len(mu))
        if not (_falls(x, levi) and (keys is None or all(key_x[i] == key_x[j] for i, j in levi))):
            require_p_dominant(mu, p)
        dense, classes = _held[1:3]
        images = [(-1 if lw % 2 else 1, _columns(dense, classes, apply_perm(w, x)))
                  for w, lw in levi_weyl_group(p)]
        _held = (*_held[:4], p, images)
    return _held


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
    _, dense, classes, patterns, _, _ = _hold(linkage._held[1])
    total = 1
    for pattern, column in zip(patterns, _columns(dense, classes, y)):
        total *= _integral_mult(pattern, column)
        if not total:
            return 0
    return total


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
    # mu's row decides whether mu lies in Sigma_p^+, also if the pair does not rank
    row, held = linkage._held[1], _held
    if held[0] is not row or held[4] is not p:
        held = _hold(row, mu, p)
    if ranked is None:
        return 0
    columns = _columns(held[1], held[2], ranked[1])
    total = 0
    for m, patterns in held[5]:
        for pattern, column in zip(patterns, columns):
            m *= _integral_mult(pattern, column)
            if not m:
                break
        total += m
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
