r"""Strong linkage, blocks, and simple-in-Verma edge predicates for pe(n).

Strong linkage follows the descending convention: mu is strongly linked to
lam (mu "up-arrow" lam) when mu = lam or mu is reached from lam by a chain
of reflections nu -> s_beta nu with <nu, beta> a positive integer, each step
strictly lowering.  Blocks of the full category O are described by one
record per integrality class of coordinates: the class key (fractional
part), its size, and how many of its coordinates sit at odd offset.

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

from typing import Iterator

from .weights import (
    Coord,
    Parabolic,
    Weight,
    basis_vector,
    conjugate,
    even_root,
    is_integer,
    is_p_dominant,
    levi_positive_roots,
    require_p_dominant,
    sub,
)


def _neighbors(nu: Weight, sign: int) -> Iterator[Weight]:
    """One strictly lowering (sign 1) or raising (sign -1) reflection step:
    swap nu_i, nu_j (i < j) when sign * (nu_i - nu_j) is a positive integer."""
    n = len(nu)
    for i in range(n):
        for j in range(i + 1, n):
            d = (nu[i] - nu[j]) * sign
            if is_integer(d) and d > 0:
                out = list(nu)
                out[i], out[j] = out[j], out[i]
                yield tuple(out)


def _comparable(mu: Weight, lam: Weight) -> bool:
    """Cheap necessary condition: same coordinate multiset and mutually
    integral coordinatewise (linkage chains permute within integrality
    classes)."""
    if len(mu) != len(lam):
        return False
    if sorted(mu) != sorted(lam):
        return False
    return all(is_integer(a - b) for a, b in zip(mu, lam))


def strongly_linked(mu: Weight, lam: Weight) -> bool:
    """mu = lam, or mu is reachable from lam by a strictly lowering chain."""
    if mu == lam:
        return True
    if not _comparable(mu, lam):
        return False
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for nu in frontier:
            for nb in _neighbors(nu, 1):
                if nb == mu:
                    return True
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return False


def _closure(start: Weight, sign: int) -> frozenset[Weight]:
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for nu in frontier:
            for nb in _neighbors(nu, sign):
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return frozenset(seen)


def strong_down_set(lam: Weight) -> frozenset[Weight]:
    """All mu strongly linked to lam (including lam)."""
    return _closure(lam, 1)


def strong_up_set(mu: Weight) -> frozenset[Weight]:
    """All lam with mu strongly linked to lam (including mu)."""
    return _closure(mu, -1)


# --- blocks -------------------------------------------------------------------

BlockRecord = tuple[Coord, int, int]  # (class key, size, odd count)


def block_label(lam: Weight) -> tuple[BlockRecord, ...]:
    """One record per integrality class, in first-occurrence order.

    The key is the common fractional part, the last entry counts the
    coordinates whose integer offset from the key is odd.

    >>> from .weights import weight
    >>> block_label(weight(4, 7, 0))
    ((0, 3, 1),)
    """
    classes: list[tuple[Coord, list[Coord]]] = []
    for c in lam:
        key = c - c.__floor__()
        for k, members in classes:
            if k == key:
                members.append(c)
                break
        else:
            classes.append((key, [c]))
    return tuple(
        (key, len(members), sum(1 for c in members if (c - key).numerator % 2 != 0))
        for key, members in classes
    )


def same_block(lam: Weight, mu: Weight) -> bool:
    """Equality of block labels as multisets of class records."""
    return sorted(block_label(lam)) == sorted(block_label(mu))


def canonical_representative(lam: Weight) -> Weight:
    """The standard weight in the block of lam.

    Within each integrality class (key r, odd count o) the class's index
    positions are refilled, in order, with o copies of r+1 followed by
    copies of r; an integral weight lands on (1,..,1,0,..,0) with
    n_odd(lam) ones.

    >>> from .weights import weight, format_weight
    >>> format_weight(canonical_representative(weight(4, 7, 0)))
    '1,0,0'
    >>> format_weight(canonical_representative(weight(0, "1/2", 1)))
    '1,1/2,0'
    """
    classes: list[tuple[Coord, list[int]]] = []
    for i, c in enumerate(lam):
        key = c - c.__floor__()
        for k, members in classes:
            if k == key:
                members.append(i)
                break
        else:
            classes.append((key, [i]))
    out: list = [0] * len(lam)
    for key, positions in classes:
        odd = sum(1 for i in positions if (lam[i] - key).numerator % 2 != 0)
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


def A_set(lam: Weight, q: int) -> frozenset[int]:
    """{ j : q <= j <= n, lam_q = lam_j } with 1-based q and result."""
    n = len(lam)
    if not 1 <= q <= n:
        raise ValueError(f"index {q} out of range for n={n}")
    return frozenset(j for j in range(q, n + 1) if lam[q - 1] == lam[j - 1])


def thm34_nabla_edge(lam: Weight, q: int, p: Parabolic) -> bool:
    """Certifies [Delta^p_lam : L^p_{lam - 2 e_q}] > 0 (1-based q).

    Requires lam in Sigma_p^+.  Holds when lam - 2 e_q stays in Sigma_p^+
    and no j in A_set(lam, q) with j <= n-1 has <lam, alpha_j> = 1.
    """
    require_p_dominant(lam, p)
    n = len(lam)
    target = sub(lam, tuple(2 * c for c in basis_vector(q - 1, n)))
    if not is_p_dominant(target, p):
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
    alpha = even_root(i - 1, i, n)
    if alpha not in levi_positive_roots(p, n):
        return False
    if lam[i - 1] - lam[i] != 1:
        return False
    if not is_p_dominant(sub(lam, conjugate(alpha)), p):
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
    return lam[i - 1] - lam[i] == 1


def prop37_propagate(mu: Weight, lam: Weight) -> bool:
    """Transport condition for positivity certificates: a certified
    [Delta_mu : L_eta] > 0 yields [Delta_lam : L_eta] > 0 iff mu is
    strongly linked to lam."""
    return strongly_linked(mu, lam)


# --- alternative highest-weight-edge criteria (linkage form) -------------------


def thmA_nabla_form(lam: Weight, q: int, p: Parabolic) -> bool:
    """Linkage reformulation of thm34_nabla_edge (1-based q).

    lam - 2 e_q stays in Sigma_p^+ and lam - 2 e_q is not strongly linked
    to lam - conj(alpha_i) for any i <= n-1 with <lam, alpha_i> = 1.
    """
    require_p_dominant(lam, p)
    n = len(lam)
    target = sub(lam, tuple(2 * c for c in basis_vector(q - 1, n)))
    if not is_p_dominant(target, p):
        return False
    for i in range(n - 1):
        alpha = even_root(i, i + 1, n)
        if lam[i] - lam[i + 1] == 1 and strongly_linked(
            target, sub(lam, conjugate(alpha))
        ):
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
    alpha = even_root(i - 1, i, n)
    if alpha not in levi_positive_roots(p, n):
        return False
    if lam[i - 1] - lam[i] != 1:
        return False
    source = sub(lam, conjugate(alpha))
    if not is_p_dominant(source, p):
        return False
    for q in range(n):
        target = sub(lam, tuple(2 * c for c in basis_vector(q, n)))
        if strongly_linked(source, target):
            return False
    return True


if __name__ == "__main__":
    import doctest

    doctest.testmod()
