r"""Weight-space data for the periplectic Lie superalgebra pe(n).

Weights live in the dual Cartan h* with orthonormal-ish basis e_1, ..., e_n
(<e_i, e_j> = delta_ij) and are stored as tuples of exact coordinates: an
integral coordinate is a Python int, any other one a reduced Fraction with
denominator > 1.  `exact` normalises a coordinate once, where it enters the
program (weight, parse_weight, shift); an int equals and hashes like the
equal Fraction, so either form works as a key, but only the normalised one
keeps the integer fast path.  All indices in code are 0-based; a weight
(a, b, c) stands for a*e_1 + b*e_2 + c*e_3.  Throughout the package weights
are rho-shifted: the label lam refers to the module of highest weight
lam - rho, with rho = (n-1, ..., 1, 0).

Even roots are the gl(n) roots e_i - e_j; odd roots are -e_i - e_j (i < j)
and e_i + e_j (i <= j).  The public root functions return plain weight
vectors, so the bilinear form is the dot product; the predicates below work
on the index pairs (i, j) instead, where <lam, e_i - e_j> = lam[i] - lam[j].

>>> parse_weight("0,1/2,1")
(0, Fraction(1, 2), 1)
>>> format_weight(reflect_coords((3, 1, 0), 0, 2))
'0,1,3'
>>> is_dominant(parse_weight("0,1/2,1"))
False
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Tuple, Union

Coord = Union[int, Fraction]
Weight = Tuple[Coord, ...]
Root = Tuple[Coord, ...]
# A parabolic is the composition of n giving the block sizes of its Levi;
# the Borel is (1, ..., 1).
Parabolic = Tuple[int, ...]

ZERO = 0
ONE = 1


def exact(c) -> Coord:
    """One exact coordinate: an int when integral, else a reduced Fraction.

    Accepts ints, Fractions and strings such as "1/2" or "0.5".  Floats are
    refused (a binary float is rarely the rational meant), and so are bools.

    >>> exact("4/2"), exact(Fraction(1, 2)), exact(-3)
    (2, Fraction(1, 2), -3)
    """
    if type(c) is int:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(
            f"weight coordinate {c!r} is not exact; use an int, Fraction or string"
        )
    q = Fraction(c)
    return q.numerator if q.denominator == 1 else q


def weight(*coords) -> Weight:
    """Coerce integers/strings/Fractions to an exact weight tuple.

    >>> weight(0, "1/2", -2)
    (0, Fraction(1, 2), -2)
    """
    return tuple(exact(c) for c in coords)


def parse_weight(text: str) -> Weight:
    """Parse a comma-separated weight, e.g. "0,1,-2" or "0,1/2,1"."""
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(not p for p in parts):
        raise ValueError(f"malformed weight text: {text!r}")
    return tuple(exact(p) for p in parts)


def format_weight(lam: Weight) -> str:
    """Inverse of parse_weight: exact round trip.

    >>> format_weight(parse_weight("0,1/2,-2"))
    '0,1/2,-2'
    """
    return ",".join(str(c) for c in lam)


def pairing(lam: Weight, mu: Weight) -> Coord:
    """The standard form <.,.> with <e_i, e_j> = delta_ij."""
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    return sum((a * b for a, b in zip(lam, mu)), ZERO)


def rho(n: int) -> Weight:
    """rho = (n-1, n-2, ..., 1, 0)."""
    return tuple(n - 1 - i for i in range(n))


def omega(n: int) -> Weight:
    """omega_n = e_1 + ... + e_n, the weight of the determinant character."""
    return (ONE,) * n


def partial_weight(i: int, n: int) -> Weight:
    """The block representative with i leading ones: (1,..,1,0,..,0)."""
    if not 0 <= i <= n:
        raise ValueError(f"partial weight index {i} out of range for n={n}")
    return (ONE,) * i + (ZERO,) * (n - i)


def shift(lam: Weight, k) -> Weight:
    """lam + k*omega_n (tensor by the k-th power of the determinant)."""
    k = exact(k)
    return tuple(exact(c + k) for c in lam)


def add(lam: Weight, mu: Weight) -> Weight:
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    return tuple(a + b for a, b in zip(lam, mu))


def sub(lam: Weight, mu: Weight) -> Weight:
    if len(lam) != len(mu):
        raise ValueError("dimension mismatch")
    return tuple(a - b for a, b in zip(lam, mu))


def negate(lam: Weight) -> Weight:
    return tuple(-c for c in lam)


def basis_vector(i: int, n: int) -> Weight:
    return tuple(ONE if j == i else ZERO for j in range(n))


def even_root(i: int, j: int, n: int) -> Root:
    """e_i - e_j as a vector (0-based i != j)."""
    if i == j:
        raise ValueError("even root needs distinct indices")
    return tuple(
        ONE if k == i else -ONE if k == j else ZERO for k in range(n)
    )


def positive_even_roots(n: int) -> list[Root]:
    """Phi_0^+ = {e_i - e_j : i < j}, in lexicographic (i, j) order."""
    return [even_root(i, j, n) for i, j in _positive_pairs(n)]


def simple_roots(n: int) -> list[Root]:
    """alpha_i = e_i - e_{i+1} for i = 0..n-2."""
    return [even_root(i, i + 1, n) for i in range(n - 1)]


def odd_roots(n: int) -> list[Root]:
    """Phi_1 = {-e_i - e_j : i < j} union {e_i + e_j : i <= j}."""
    minus = [
        tuple(-ONE if k in (i, j) else ZERO for k in range(n))
        for i in range(n)
        for j in range(i + 1, n)
    ]
    plus = [
        tuple(
            2 if (k == i and i == j) else ONE if k in (i, j) else ZERO
            for k in range(n)
        )
        for i in range(n)
        for j in range(i, n)
    ]
    return minus + plus


def conjugate(beta: Root) -> Root:
    """The odd conjugate of an even root: e_i - e_j  |->  e_i + e_j.

    >>> conjugate(even_root(0, 1, 3))
    (1, 1, 0)
    """
    if sorted(beta) != sorted((-ONE, ONE) + (ZERO,) * (len(beta) - 2)):
        raise ValueError("conjugate is defined for roots e_i - e_j only")
    return tuple(abs(c) for c in beta)


def reflect_coords(lam: Weight, i: int, j: int) -> Weight:
    """Reflection in e_i - e_j: swap coordinates i and j."""
    out = list(lam)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def levi_blocks(p: Parabolic) -> list[range]:
    """Index ranges of the Levi gl-blocks of the composition p."""
    if any(part < 1 for part in p):
        raise ValueError(f"composition parts must be positive: {p}")
    blocks, start = [], 0
    for part in p:
        blocks.append(range(start, start + part))
        start += part
    return blocks


@lru_cache(maxsize=None)
def _positive_pairs(n: int) -> tuple:
    """The index pairs (i, j), i < j, of the positive even roots e_i - e_j."""
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=None)
def _levi_pairs(p: Parabolic, n: int) -> tuple:
    """The index pairs of the positive even roots inside the Levi blocks of p."""
    if sum(p) != n:
        raise ValueError(f"composition {p} does not sum to n={n}")
    return tuple(
        (i, j) for block in levi_blocks(p) for i in block for j in block if i < j
    )


@lru_cache(maxsize=None)
def _weak_typicality_pairs(p: Parabolic, n: int) -> tuple:
    """(i, j, t) per positive even root e_i - e_j: lam is p-weakly-typical
    when no lam[i] - lam[j] equals t (1 on Levi roots of p, else -1)."""
    levi = set(_levi_pairs(p, n))
    return tuple((i, j, 1 if (i, j) in levi else -1) for i, j in _positive_pairs(n))


def levi_positive_roots(p: Parabolic, n: int) -> list[Root]:
    """Phi^+(l): the positive even roots inside the Levi blocks of p."""
    return [even_root(i, j, n) for i, j in _levi_pairs(tuple(p), n)]


def borel(n: int) -> Parabolic:
    return (1,) * n


def is_integer(x: Coord) -> bool:
    return x.denominator == 1


def is_dominant(lam: Weight) -> bool:
    """No pairing with a positive even root lies in Z_{<0}."""
    n = len(lam)
    return all(
        not (is_integer(lam[i] - lam[j]) and lam[i] - lam[j] < 0)
        for i in range(n)
        for j in range(i + 1, n)
    )


def is_antidominant(lam: Weight) -> bool:
    """No pairing with a positive even root lies in Z_{>0}."""
    n = len(lam)
    return all(
        not (is_integer(lam[i] - lam[j]) and lam[i] - lam[j] > 0)
        for i in range(n)
        for j in range(i + 1, n)
    )


@lru_cache(maxsize=65536)
def is_p_dominant(lam: Weight, p: Parabolic) -> bool:
    """lam lies in Sigma_p^+: <lam, alpha> in Z_{>0} for alpha in Phi^+(l).

    These are the weights indexing parabolic Vermas/costandards in O^p.
    """
    for i, j in _levi_pairs(tuple(p), len(lam)):
        v = lam[i] - lam[j]
        if not (is_integer(v) and v > 0):
            return False
    return True


def require_p_dominant(lam: Weight, p: Parabolic) -> None:
    """Raise ValueError unless lam lies in Sigma_p^+."""
    if not is_p_dominant(lam, p):
        raise ValueError(f"{format_weight(lam)} is not in Sigma_p^+ for p={p}")


def is_typical(lam: Weight) -> bool:
    """Product over both signs of even roots of (<lam, beta> - 1) != 0.

    >>> is_typical(weight(0, 1, 3))
    False
    >>> is_typical(weight(0, 2, 4))
    True
    """
    return all(lam[i] - lam[j] not in (1, -1) for i, j in _positive_pairs(len(lam)))


def is_g0_weakly_typical(lam: Weight) -> bool:
    """Product over positive even roots of (<lam, beta> - 1) != 0."""
    return all(lam[i] - lam[j] != 1 for i, j in _positive_pairs(len(lam)))


def is_p_weakly_typical(lam: Weight, p: Parabolic) -> bool:
    """Weak typicality relative to the parabolic with Levi composition p.

    Levi roots contribute (<lam, beta> - 1), the remaining positive even
    roots contribute (<lam, gamma> + 1); lam is p-weakly-typical when the
    product is nonzero.  For p = (1,...,1) this says no lam_j = lam_i + 1
    with i < j.
    """
    for i, j, t in _weak_typicality_pairs(tuple(p), len(lam)):
        if lam[i] - lam[j] == t:
            return False
    return True


def degree(lam: Weight) -> Coord:
    """Sum of coordinates, normalized so rho has degree 0."""
    n = len(lam)
    return sum(lam, ZERO) - n * (n - 1) // 2


def is_integral(lam: Weight) -> bool:
    return all(is_integer(c) for c in lam)


def n_odd(lam: Weight) -> int:
    """Number of odd coordinates of an integral weight."""
    if not is_integral(lam):
        raise ValueError(f"n_odd needs an integral weight, got {format_weight(lam)}")
    return sum(1 for c in lam if c.numerator % 2 != 0)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
