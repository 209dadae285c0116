r"""Strong linkage, blocks, and simple-in-Verma edge predicates for pe(n).

Strong linkage follows the descending convention: mu is strongly linked to
lam (mu "up-arrow" lam) when mu = lam or mu is reached from lam by a chain
of reflections nu -> s_beta nu with <nu, beta> a positive integer, each step
strictly lowering.  The down- and up-set walks run on rank tuples: a step
swaps two coordinates of one integrality class, so the ranking of the start
weight serves every weight reached, and each is mapped back once at the end.

Blocks of the full category O are described by one record per integrality
class of coordinates: the class key (fractional part), its size, and how
many of its coordinates sit at odd offset.

The predicates thm34_*/cor36_edge/thmA_* certify nonzero simple
multiplicities in (parabolic) Verma modules; their coordinate indices q, i
are 1-based, matching the e_q numbering of coordinates.

>>> from .weights import weight
>>> strongly_linked(weight(1, 0, 2), weight(1, 2, 0))
True
>>> strongly_linked(weight(1, 2, 0), weight(1, 0, 2))
False
"""

from __future__ import annotations

from fractions import Fraction

from .weights import (
    Coord,
    Parabolic,
    Weight,
    _EXACT,
    _ints,
    _levi_pairs,
    _positive_pairs,
    integrality_classes,
    is_p_dominant,
    require_p_dominant,
    scale,
)


_held: tuple = (None, None)  # (lam, _row(lam)) for the last weight ranked as lam


def _row(lam: Weight) -> tuple:
    """lam's half of `_ranks`, (x, keys, key_x, pairs, sorted_q, rank): its
    rank tuple, the class of each rank (None for one class) and of each
    position, whether it is ranked on exact (numerator, denominator) pairs
    or, ints alone, on values, its sorted multiset and each entry's rank.
    lam is checked by `_ints`, then held in `_held`, matched by identity,
    until another weight is ranked as lam: a row of multiplicities is one object."""
    global _held
    held, row = _held
    if held is lam:
        return row
    pairs = not _ints(lam)
    q = [c.as_integer_ratio() for c in lam] if pairs else lam
    sorted_q = sorted(q)
    rank = {v: r for r, v in enumerate(dict.fromkeys(sorted_q))}
    x = tuple(map(rank.__getitem__, q))
    keys = key_x = None
    if pairs:
        keys = tuple([(a % d, d) for a, d in rank])
        if keys.count(keys[0]) == len(keys):
            keys = None
        else:
            key_x = tuple(map(keys.__getitem__, x))
    row = (x, keys, key_x, pairs, sorted_q, rank)
    _held = (lam, row)
    return row


def _ranks(lam: Weight, mu: Weight):
    """(x, y, keys): the rank tuples of lam and mu over their shared
    multiset and the integrality class of each rank, or keys None for one
    class; None unless mu rearranges lam within the integrality classes of
    positions, which both mu up-arrow lam and a nonzero [M_lam : L_mu] need.

    Rank k is the k-th distinct value, in value order inside each class.
    lam's half comes from `_row`, computed once per held lam; each call
    does mu's half: one type scan, one sort and compare, and one rank
    lookup per coordinate; a mu that fails the scan goes to `_ints`.
    A strong-linkage step swaps two coordinates of one class, so every
    weight it reaches from lam has lam's ranking."""
    x, keys, key_x, pairs, sorted_q, rank = _row(lam)
    if mu is lam:
        return x, x, keys
    if type(mu) is not tuple or not _EXACT.issuperset(map(type, mu)):
        _ints(mu)  # a tuple subclass or an IntEnum coordinate runs on
    q = [c.as_integer_ratio() for c in mu] if pairs else mu
    if sorted(q) != sorted_q:
        return None
    y = tuple(map(rank.__getitem__, q))
    if keys is not None and tuple(map(keys.__getitem__, y)) != key_x:
        return None  # some lam_i - mu_i is not an integer
    return x, y, keys


def _walk(r: tuple, keys, sign: int) -> set:
    """The rank tuples reached from r (ranks and keys of `_ranks`) by strictly
    lowering (sign 1) or raising (sign -1) steps: swap r_i, r_j, i < j of
    one class, when sign * (r_i - r_j) > 0."""
    pairs = _positive_pairs(len(r))
    if keys is not None:
        pairs = [(i, j) for i, j in pairs if keys[r[i]] == keys[r[j]]]
    seen = {r}
    stack = [r]
    while stack:
        x = stack.pop()
        for i, j in pairs:
            if (x[i] - x[j]) * sign > 0:
                y = list(x)
                y[i], y[j] = y[j], y[i]
                y = tuple(y)
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    return seen


def strongly_linked(mu: Weight, lam: Weight) -> bool:
    """mu = lam, or mu is reachable from lam by a strictly lowering chain."""
    ranked = _ranks(lam, mu)
    return ranked is not None and ranked[1] in _walk(ranked[0], ranked[2], 1)


def strong_down_set(lam: Weight) -> frozenset[Weight]:
    """All mu strongly linked to lam (including lam)."""
    r, _, keys = _ranks(lam, lam)
    value = dict(zip(r, lam))
    return frozenset(tuple(map(value.__getitem__, x)) for x in _walk(r, keys, 1))


# --- blocks -------------------------------------------------------------------

BlockRecord = tuple[Coord, int, int]  # (class key, size, odd count)


def _class_records(lam: Weight) -> list:
    """(key, positions, odd count) per integrality class of lam, in
    first-occurrence order; the key is the class's fractional part."""
    out = []
    for (r, d), positions in integrality_classes(lam):
        odd = sum((lam[i].numerator - r) // d % 2 for i in positions)
        out.append((r if d == 1 else Fraction(r, d), positions, odd))
    return out


def block_label(lam: Weight) -> tuple[BlockRecord, ...]:
    """One record per integrality class, in first-occurrence order.

    The key is the common fractional part, the last entry counts the
    coordinates whose integer offset from the key is odd.

    >>> from .weights import weight
    >>> block_label(weight(4, 7, 0))
    ((0, 3, 1),)
    """
    return tuple((key, len(positions), odd) for key, positions, odd in _class_records(lam))


def canonical_representative(lam: Weight) -> Weight:
    """The standard weight in the block of lam.

    Within each integrality class (key r, odd count o) the class's index
    positions are refilled, in order, with o copies of r+1 followed by
    copies of r; an integral weight lands on (1,..,1,0,..,0) with
    one 1 per odd coordinate.

    >>> from .weights import weight, format_weight
    >>> format_weight(canonical_representative(weight(4, 7, 0)))
    '1,0,0'
    >>> format_weight(canonical_representative(weight(0, "1/2", 1)))
    '1,1/2,0'
    """
    out: list = [0] * len(lam)
    for key, positions, odd in _class_records(lam):
        for rank, i in enumerate(positions):
            out[i] = key + 1 if rank < odd else key
    return tuple(out)


def block_count(composition: Parabolic) -> int:
    """Number of blocks realized by weights with the given class sizes."""
    count = 1
    for part in composition:
        count *= part + 1
    return count


# --- edge predicates ----------------------------------------------------------


def _lowered(lam: Weight, *idx: int) -> Weight:
    """lam - sum of e_k over the 0-based k in idx (a repeated k counts twice)."""
    return tuple(c - idx.count(k) for k, c in enumerate(lam))


def A_set(lam: Weight, q: int) -> frozenset[int]:
    """{ j : q <= j <= n, lam_q = lam_j } with 1-based q and result."""
    n = len(lam)
    if not 1 <= q <= n:
        raise ValueError(f"index {q} out of range for n={n}")
    _, (x,) = scale([lam])
    return frozenset(j for j in range(q, n + 1) if x[q - 1] == x[j - 1])


def thm34_nabla_edge(lam: Weight, q: int, p: Parabolic) -> bool:
    """Certifies [Delta^p_lam : L^p_{lam - 2 e_q}] > 0 (1-based q).

    Requires lam in Sigma_p^+.  Holds when lam - 2 e_q stays in Sigma_p^+
    and no j in A_set(lam, q) with j <= n-1 has <lam, alpha_j> = 1.
    """
    require_p_dominant(lam, p)
    n = len(lam)
    if not is_p_dominant(_lowered(lam, q - 1, q - 1), p):
        return False
    for j in A_set(lam, q):
        if j <= n - 1 and lam[j - 1] - lam[j] == 1:
            return False
    return True


def thm34_delta_edge(lam: Weight, i: int, p: Parabolic) -> bool:
    """Certifies [Delta^p_lam : L^p_{lam - conj(alpha_i)}] > 0 (1-based i).

    Requires lam in Sigma_p^+.  Holds when alpha_i is a Levi root of p,
    lam - conj(alpha_i) stays in Sigma_p^+, <lam, alpha_i> = 1, and
    A_set(lam, i) = {i}.
    """
    require_p_dominant(lam, p)
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    if (i - 1, i) not in _levi_pairs(p, n):
        return False
    if lam[i - 1] - lam[i] != 1:
        return False
    if not is_p_dominant(_lowered(lam, i - 1, i), p):
        return False
    return A_set(lam, i) == frozenset({i})


def cor36_edge(lam: Weight, i: int) -> bool:
    """Certifies [Delta_lam : L_{lam - conj(alpha_i)}] > 0 in full O at n=3.

    The criterion is simply <lam, alpha_i> = 1 (1-based i in {1, 2}).
    """
    if len(lam) != 3:
        raise ValueError("this certificate is specific to n=3")
    if i not in (1, 2):
        raise ValueError(f"simple root index {i} out of range for n=3")
    _ints(lam)  # 1.5 - 0.5 == 1 would certify a float lam
    return lam[i - 1] - lam[i] == 1


# --- alternative highest-weight-edge criteria (linkage form) -------------------


def thmA_nabla_form(lam: Weight, q: int, p: Parabolic) -> bool:
    """Linkage reformulation of thm34_nabla_edge (1-based q).

    lam - 2 e_q stays in Sigma_p^+ and lam - 2 e_q is not strongly linked
    to lam - conj(alpha_i) for any i <= n-1 with <lam, alpha_i> = 1.
    """
    require_p_dominant(lam, p)
    target = _lowered(lam, q - 1, q - 1)
    if not is_p_dominant(target, p):
        return False
    for i in range(len(lam) - 1):
        if lam[i] - lam[i + 1] == 1 and strongly_linked(target, _lowered(lam, i, i + 1)):
            return False
    return True


def thmA_delta_form(lam: Weight, i: int, p: Parabolic) -> bool:
    """Linkage reformulation of thm34_delta_edge (1-based i).

    Same Levi-root/pairing hypotheses, with A_set(lam, i) = {i} replaced
    by: lam - conj(alpha_i) is not strongly linked to any lam - 2 e_q.
    """
    require_p_dominant(lam, p)
    n = len(lam)
    if not 1 <= i <= n - 1:
        raise ValueError(f"simple root index {i} out of range for n={n}")
    if (i - 1, i) not in _levi_pairs(p, n):
        return False
    if lam[i - 1] - lam[i] != 1:
        return False
    source = _lowered(lam, i - 1, i)
    if not is_p_dominant(source, p):
        return False
    return not any(strongly_linked(source, _lowered(lam, q, q)) for q in range(n))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
