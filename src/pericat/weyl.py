r"""Symmetric group combinatorics: Bruhat order and Kazhdan-Lusztig polynomials.

Permutations are 0-based one-line tuples: w = (w(0), ..., w(n-1)) sends
position-index i to w(i).  Acting on weights we use the place action
(w.lam)_{w(i)} = lam_i, so the transposition of i and j swaps coordinates,
matching the reflection in e_i - e_j.

Polynomials in q are tuples of integer coefficients, constant term first,
with no trailing zeros; the zero polynomial is the empty tuple.

Kazhdan-Lusztig polynomials come from the classical recursion, except for
the comparable pairs with l(w) - l(x) <= 2 (after normalizing x), which the
degree bound deg P_{x,w} <= (l(w) - l(x) - 1)/2 and P_{x,w}(0) = 1 fix at 1.
Each polynomial the recursion computes is checked against both facts and
kept in a per-rank memo of the remaining pairs.  Inside the recursion, Bruhat
order compares rank matrices r_w(i, j) = #{a < i : w(a) >= j} packed into one
int per permutation, built with the other per-rank tables in one pass over
S_1, ..., S_n; ``bruhat_leq`` keeps the prefix-sorting criterion.

>>> length((2, 0, 1))
2
>>> bruhat_leq((0, 2, 1), (2, 1, 0))
True
>>> kl_polynomial((0, 1, 2, 3), (3, 2, 1, 0))
(1,)
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Tuple

from .weights import Parabolic, Weight, levi_blocks

Perm = Tuple[int, ...]
Poly = Tuple[int, ...]

ZERO_POLY: Poly = ()
ONE_POLY: Poly = (1,)


# --- permutations -----------------------------------------------------------


def inverse(w: Perm) -> Perm:
    out = [0] * len(w)
    for i, wi in enumerate(w):
        out[wi] = i
    return tuple(out)


@lru_cache(maxsize=None)
def all_perms(n: int) -> Tuple[Perm, ...]:
    return tuple(itertools.permutations(range(n)))


def length(w: Perm) -> int:
    """Number of inversions.

    >>> length((3, 2, 1, 0))
    6
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


def parabolic_longest(p: Parabolic) -> Perm:
    """Longest element of the Levi Weyl group S_{p_1} x ... x S_{p_k}."""
    out: list[int] = []
    for block in levi_blocks(p):
        out.extend(reversed(block))
    return tuple(out)


@lru_cache(maxsize=None)
def levi_weyl_group(p: Parabolic) -> tuple:
    """The Levi Weyl group as whole-space permutations, with lengths."""
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in levi_blocks(p))):
        w = tuple(itertools.chain.from_iterable(parts))  # the blocks are contiguous
        out.append((w, length(w)))
    return tuple(out)


def apply_perm(w: Perm, lam: Weight) -> Weight:
    """Place action: coordinate i of lam moves to position w(i)."""
    if len(w) != len(lam):
        raise ValueError("dimension mismatch")
    out = [None] * len(lam)
    for i, wi in enumerate(w):
        out[wi] = lam[i]
    return tuple(out)


def parse_perm(text: str) -> Perm:
    """Parse 1-indexed one-line notation, e.g. "2,1,3" -> (1, 0, 2)."""
    bad = ValueError(f"not a permutation in one-line notation: {text!r}")
    try:
        values = [int(p) for p in text.split(",")]
    except ValueError:
        raise bad from None
    if sorted(values) != list(range(1, len(values) + 1)):
        raise bad
    return tuple(v - 1 for v in values)


def bruhat_leq(x: Perm, w: Perm) -> bool:
    """Bruhat order by the prefix-sorting (dot) criterion."""
    if len(x) != len(w):
        raise ValueError("dimension mismatch")
    for k in range(1, len(x)):
        for a, b in zip(sorted(x[:k]), sorted(w[:k])):
            if a > b:
                return False
    return True


# --- simple (value) multiplications and descents ----------------------------


def left_descents(w: Perm) -> list[int]:
    """Indices i with s_i w < w, i.e. value i sits right of value i+1."""
    inv = inverse(w)
    return [i for i in range(len(w) - 1) if inv[i] > inv[i + 1]]


def left_mult(i: int, w: Perm) -> Perm:
    """s_i . w: swap the values i and i+1 in the one-line word."""
    return tuple(i + 1 if v == i else i if v == i + 1 else v for v in w)


# --- polynomial helpers -----------------------------------------------------


def poly_trim(coeffs: list[int]) -> Poly:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def poly_add(a: Poly, b: Poly) -> Poly:
    out = [0] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return poly_trim(out)


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, tuple(-c for c in b))


def poly_scale(k: int, a: Poly) -> Poly:
    if k == 0:
        return ZERO_POLY
    return tuple(k * c for c in a)


def poly_shift(a: Poly, k: int) -> Poly:
    """Multiply by q^k."""
    if not a:
        return ZERO_POLY
    return (0,) * k + a


def poly_mul(a: Poly, b: Poly) -> Poly:
    if not a or not b:
        return ZERO_POLY
    out = [0] * (len(a) + len(b) - 1)
    for i, c in enumerate(a):
        for j, d in enumerate(b):
            out[i + j] += c * d
    return poly_trim(out)


def poly_eval(a: Poly, x) -> int:
    return sum(c * x**i for i, c in enumerate(a))


def format_poly(a: Poly) -> str:
    """Human form: () -> "0", (1,) -> "1", (1, 1) -> "1+q^1", (0, 2) -> "2q^1"."""
    if not a:
        return "0"
    parts = []
    for i, c in enumerate(a):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif c == 1:
            parts.append(f"q^{i}")
        else:
            parts.append(f"{c}q^{i}")
    return "+".join(parts).replace("+-", "-")


# --- Kazhdan-Lusztig recursion ----------------------------------------------


class InvariantViolation(ValueError):
    """A computed object breaks an invariant the theory guarantees; raised
    in place of ``assert`` so the check also runs under ``python -O``."""


class _RankIndex:
    """S_n enumerated once, as int tables over the positions of ``all_perms(n)``.

    ``all_perms`` lists S_m in lexicographic order, so S_m is m blocks of
    (m-1)! positions: block d holds w = (d, f_d(u)) for u in S_{m-1} in
    order, with f_d(v) = v for v < d and v + 1 otherwise.  The tables are
    built from S_1 up, each S_m's block by block from S_{m-1}'s; none of
    them looks a permutation up in ``position``:

    * ``length[k]`` is l(w_k); in block d, l(w) = d + l(u);
    * ``descents[k]`` has bit i set iff s_i w_k < w_k (value i sits right of
      value i+1).  In block d these are u's bits 0..d-2, then bit d-1 set
      and bit d clear, then u's bits from d on shifted up by one;
    * ``left[i][k]`` is the position of s_i w_k.  When i + 1 = d or i = d,
      s_i w is (d -+ 1, f_{d-+1}(u)), the same offset in the block before or
      after; otherwise it stays in block d as (d, f_d(s_i' u)), with i' = i
      below d - 1 and i' = i - 1 above d;
    * ``key[k]`` packs w_k's rank matrix r(i, j) = #{a < i : w(a) >= j},
      1 <= i, j < n, row by row, each entry in ``bits`` value bits under a
      guard bit.  In block d, row i of w is u's row i-1 (row 0 being 0) with
      u's fields j >= d moved up one field (field d also stays), plus 1 in
      each field j <= d; for d = 0, field 1 holds i-1 instead.

    Bruhat order is the rank-matrix criterion (Bjorner-Brenti, Thm 2.1.5):
    x <= w iff r_x <= r_w field by field, that is iff ``((key[w] | guard) -
    key[x]) & guard == guard`` (no borrow crosses a field).
    ``by_length[s][L]`` lists the w of length L with s a left descent, read
    off ``descents``.  ``position`` maps a permutation to its k.  ``kl``
    memoizes P_{x,w}, keyed x*size+w, on the normalized pairs x < w with
    l(w) - l(x) >= 3 that the recursion reached; the degree bound answers
    every other comparable pair.
    """

    def __init__(self, n: int):
        perms = all_perms(n)
        size = len(perms)
        bits = (n - 1).bit_length()
        width = bits + 1
        stride = (n - 1) * width  # the bits of one rank-matrix row
        self.perms = perms
        self.size = size
        self.position = dict(zip(perms, range(size)))
        self.guard = sum(1 << (f * width + bits) for f in range((n - 1) ** 2))

        lengths, descents, left, keys = [0], [0], [], [0]
        for m in range(2, n + 1):
            step = len(lengths)  # (m-1)!, the size of a block
            rows = []
            for i in range(m - 1):
                row = []
                for d in range(m):
                    if i + 1 == d:
                        row += range((d - 1) * step, d * step)
                    elif i == d:
                        row += range((d + 1) * step, (d + 2) * step)
                    else:
                        row += map((d * step).__add__, left[i if i < d else i - 1])
                rows.append(row)
            left = rows
            out = [u << 1 for u in descents]
            for d in range(1, m):
                low = (1 << d - 1) - 1
                out += [u & low | low + 1 | u >> d << d + 1 for u in descents]
            descents = out
            lengths = [d + l for d in range(m) for l in lengths]
            # field[j] masks field j+1 of u's m-2 rows; ones is 1 in field 1
            # of w's m-1 rows, and first holds block 0's values i-1 there.
            field = [sum(((1 << bits) - 1) << i * stride for i in range(m - 2)) << j * width
                     for j in range(m - 2)]
            ones = sum(1 << i * stride for i in range(m - 1))
            first = sum(i << i * stride for i in range(m - 1))
            out = []
            for d in range(m):
                low, high = sum(field[:d]), sum(field[max(d - 1, 0):])
                add = sum(ones << j * width for j in range(d)) if d else first
                # + and not |: the constant adds to the fields it lands on.
                out += [((k & low) << stride) + ((k & high) << stride + width) + add
                        for k in keys]
            keys = out
        self.length, self.descents, self.left, self.key = lengths, descents, left, keys

        self.by_length = [[[] for _ in range(n * (n - 1) // 2 + 1)] for _ in range(n - 1)]
        for i, rows in enumerate(self.by_length):
            bit = 1 << i
            for k in itertools.compress(range(size), [dk & bit for dk in descents]):
                rows[lengths[k]].append(k)
        self.kl: dict[int, Poly] = {}

    def leq(self, x: int, w: int) -> bool:
        guard = self.guard
        return (self.key[w] | guard) - self.key[x] & guard == guard

    def poly(self, x: int, w: int) -> Poly:
        """P_{x,w} on positions (see ``kl_polynomial``)."""
        if x == w:
            return ONE_POLY
        if not self.leq(x, w):
            return ZERO_POLY
        descents = self.descents
        dw = descents[w]
        up = dw & ~descents[x]
        while up:
            x = self.left[(up & -up).bit_length() - 1][x]
            up = dw & ~descents[x]
        # x <= w stays true; the degree bound fixes P = 1 at a gap of 2 or less.
        if self.length[w] - self.length[x] <= 2:
            return ONE_POLY
        key = x * self.size + w
        cached = self.kl.get(key)
        if cached is None:
            cached = self.kl[key] = self._recurse(x, w)
        return cached

    def mu(self, z: int, w: int) -> int:
        gap = self.length[w] - self.length[z]
        if gap <= 0 or gap % 2 == 0:
            return 0
        p = self.poly(z, w)
        exponent = (gap - 1) // 2
        return p[exponent] if exponent < len(p) else 0

    def _recurse(self, x: int, w: int) -> Poly:
        # s is a descent of x after normalization, so the main branch applies:
        # P_{x,w} = P_{sx,v} + q P_{x,v} - sum_z mu(z,v) q^((l(w)-l(z))/2) P_{x,z}
        # over x <= z < v with sz < z; mu(z,v) = 0 unless l(v) - l(z) is odd.
        s = (self.descents[w] & -self.descents[w]).bit_length() - 1
        v = self.left[s][w]
        result = poly_add(self.poly(self.left[s][x], v), poly_shift(self.poly(x, v), 1))
        lw, lx = self.length[w], self.length[x]
        key, guard = self.key, self.guard
        kx, kv = key[x], key[v] | guard
        for lz in range(lw - 2, lx - 1, -2):
            for z in self.by_length[s][lz]:
                kz = key[z]  # x <= z <= v, as in ``leq``
                if (kz | guard) - kx & guard != guard or kv - kz & guard != guard:
                    continue
                # z < v with l(z) = l(v) - 1 is a cover, so P_{z,v} = 1 and mu = 1.
                m = 1 if lz == lw - 2 else self.mu(z, v)
                if m:
                    result = poly_sub(
                        result, poly_shift(poly_scale(m, self.poly(x, z)), (lw - lz) // 2)
                    )

        if not (result and result[0] == 1 and all(c >= 0 for c in result)):
            problem = "malformed"
        elif 2 * (len(result) - 1) > lw - lx - 1:
            problem = "breaks the degree bound"
        else:
            return result
        raise InvariantViolation(
            f"KL polynomial {problem} for {self.perms[x]}, {self.perms[w]}: {result}"
        )


@lru_cache(maxsize=None)
def _rank_index(n: int) -> _RankIndex:
    return _RankIndex(n)


def _positions(x: Perm, w: Perm) -> tuple[_RankIndex, int, int]:
    if len(x) != len(w):
        raise ValueError("dimension mismatch")
    index = _rank_index(len(w))
    px, pw = index.position.get(x), index.position.get(w)
    if px is None or pw is None:
        raise ValueError(f"not permutations of range({len(w)}): {x}, {w}")
    return index, px, pw


def kl_polynomial(x: Perm, w: Perm) -> Poly:
    """Kazhdan-Lusztig polynomial P_{x,w} for the symmetric group.

    Classical recursion on a left descent s of w, after normalizing x up
    through the descents of w (P_{x,w} = P_{sx,w} when sw < w < sx).  For
    x <= w the constant term is 1 and the degree is at most
    (l(w) - l(x) - 1)/2, so P_{x,w} = 1 whenever the normalized pair has
    l(w) - l(x) <= 2: those pairs are answered from the bound, after the
    Bruhat test, and never recursed on or memoized.  Every polynomial the
    recursion computes is checked against both facts
    (``InvariantViolation``) and memoized per normalized pair.  Runs on the
    per-rank tables of ``_RankIndex``.
    """
    index, px, pw = _positions(x, w)
    return index.poly(px, pw)


def kl_eval_one(x: Perm, w: Perm) -> int:
    return poly_eval(kl_polynomial(x, w), 1)


# --- R-polynomials (independent check of the KL recursion) -------------------


@lru_cache(maxsize=None)
def r_polynomial(x: Perm, w: Perm) -> Poly:
    """R_{x,w}, by the left-descent recursion.  Used as an oracle: the KL
    family is characterized by q^(l(w)-l(x)) P_{x,w}(1/q) =
    sum_{x <= z <= w} R_{x,z} P_{z,w} together with the degree bound."""
    if x == w:
        return ONE_POLY
    if not bruhat_leq(x, w):
        return ZERO_POLY
    s = left_descents(w)[0]
    v = left_mult(s, w)
    sx = left_mult(s, x)
    if length(sx) < length(x):
        return r_polynomial(sx, v)
    return poly_add(
        poly_mul((-1, 1), r_polynomial(x, v)),
        poly_shift(r_polynomial(sx, v), 1),
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
