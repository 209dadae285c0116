r"""Weight-space data for the periplectic Lie superalgebra pe(n).

Weights live in the dual Cartan h* with orthonormal-ish basis e_1, ..., e_n
(<e_i, e_j> = delta_ij) and are stored as tuples of exact coordinates: an
integral coordinate is a Python int, any other one a reduced Fraction with
denominator > 1, and a weight is a tuple: `_ints` checks each weight the
engine is given.  `exact` normalises a coordinate once, where it enters
the program (weight, parse_weight, shift); an int equals and hashes like
the equal Fraction, so either form works as a key, but only the normalised
one keeps the integer fast path.  Indices are 0-based; (a, b, c) stands for
a*e_1 + b*e_2 + c*e_3.  Weights are rho-shifted: the label lam refers to
the module of highest weight lam - rho, with rho = (n-1, ..., 1, 0).

Even roots are the gl(n) roots e_i - e_j; odd roots are -e_i - e_j (i < j)
and e_i + e_j (i <= j).  A root is stored as its index pair (i, j), where
<lam, e_i - e_j> = lam[i] - lam[j].

>>> parse_weight("0,1/2,1")
(0, Fraction(1, 2), 1)
>>> is_dominant(parse_weight("0,1/2,1"))
False
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import lcm
from typing import Iterable, Sequence, Tuple, Union

Coord = Union[int, Fraction]
Weight = Tuple[Coord, ...]
# A parabolic is the composition of n giving the block sizes of its Levi;
# the Borel is (1, ..., 1).
Parabolic = Tuple[int, ...]
_INT, _EXACT = frozenset({int}), frozenset({int, Fraction})  # coordinate types


def exact(c) -> Coord:
    """One exact coordinate: an int when integral, else a reduced Fraction.

    Accepts ints, Fractions and strings such as "1/2" or "0.5".  Floats are
    refused (a binary float is rarely the rational meant), and so are bools;
    a zero denominator raises ValueError.

    >>> exact("4/2"), exact(Fraction(1, 2)), exact(-3)
    (2, Fraction(1, 2), -3)
    """
    if type(c) is int:
        return c
    if isinstance(c, (float, bool)):
        raise TypeError(
            f"weight coordinate {c!r} is not exact; use an int, Fraction or string"
        )
    try:
        q = Fraction(c)
    except ZeroDivisionError:
        raise ValueError(f"weight coordinate {c!r} has a zero denominator") from None
    return q.numerator if q.denominator == 1 else q


def _ints(lam: Weight) -> bool:
    """Whether the weight lam holds ints alone: the one check of a weight
    the engine is given.  TypeError names a lam that is not a tuple, or its
    first coordinate that is not an int or Fraction; a bool is neither."""
    if not isinstance(lam, tuple):
        raise TypeError(f"weight {lam!r} is a {type(lam).__name__}, not a tuple")
    if _INT.issuperset(map(type, lam)):
        return True
    for c in lam:
        if type(c) is bool or not isinstance(c, (int, Fraction)):
            raise TypeError(f"weight coordinate {c!r} is not exact; build it with weight()")
    return False


def scale(weights: Sequence[Weight]) -> tuple[int, Sequence[tuple[int, ...]]]:
    """(d, the weights times d as int tuples), d the least common
    denominator of their coordinates; weights of ints alone are returned as
    they are, with d = 1.  `_ints` checks every weight, past a Fraction too.

    >>> scale([(1, Fraction(1, 2)), (Fraction(-2, 3), 0)])
    (6, [(6, 3), (-4, 0)])
    """
    if all([_ints(lam) for lam in weights]):
        return 1, weights
    d = lcm(*{c.denominator for c in chain.from_iterable(weights)})
    return d, [tuple([c.numerator * (d // c.denominator) for c in lam]) for lam in weights]


def unscale(terms: dict, d: int) -> Iterable[tuple[Weight, object]]:
    """The items of terms with each key x, a weight scaled by d, as x/d."""
    if d == 1:
        return terms.items()
    coord = {v: v // d if v % d == 0 else Fraction(v, d) for v in {v for x in terms for v in x}}
    return zip([tuple(map(coord.__getitem__, x)) for x in terms], terms.values())


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


def shift(lam: Weight, k) -> Weight:
    """lam + k*omega_n, omega_n = e_1 + ... + e_n (tensor by the k-th power
    of the determinant)."""
    k = exact(k)
    _ints(lam)  # True + k would pass as an int
    return tuple(exact(c + k) for c in lam)


def negate(lam: Weight) -> Weight:
    return tuple(-c for c in lam)


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


def _falls(x: tuple, levi, d: int = 1) -> bool:
    """Whether x_i - x_j is a positive multiple of d along every Levi pair
    (i, j) of the ints x: the test of Sigma_p^+ on a weight scaled by d
    (see `scale`), and with d = 1 on the ranks of a weight of one
    integrality class, where x_i > x_j exactly when coordinates i and j
    differ by a positive integer."""
    if d == 1:
        return all(x[i] > x[j] for i, j in levi)
    return all(x[i] > x[j] and (x[i] - x[j]) % d == 0 for i, j in levi)


def borel(n: int) -> Parabolic:
    return (1,) * n


def is_dominant(lam: Weight) -> bool:
    """No pairing with a positive even root lies in Z_{<0}."""
    d, (x,) = scale([lam])
    return not any(x[i] < x[j] and (x[j] - x[i]) % d == 0 for i, j in _positive_pairs(len(x)))


def is_p_dominant(lam: Weight, p: Parabolic) -> bool:
    """lam lies in Sigma_p^+: <lam, alpha> in Z_{>0} for alpha in Phi^+(l).

    These are the weights indexing parabolic Vermas/costandards in O^p.  `scale`
    checks lam at every p, and TypeError names a p that is not a tuple.
    """
    d, (x,) = scale([lam])
    if not isinstance(p, tuple):
        raise TypeError(f"parabolic {p!r} is a {type(p).__name__}, not a tuple")
    return _falls(x, _levi_pairs(p, len(lam)), d)


def require_p_dominant(lam: Weight, p: Parabolic) -> None:
    """Raise ValueError unless lam lies in Sigma_p^+, and TypeError as
    is_p_dominant does."""
    if not is_p_dominant(lam, p):
        raise ValueError(f"{format_weight(lam)} is not in Sigma_p^+ for p={p}")


def is_g0_weakly_typical(lam: Weight) -> bool:
    """Product over positive even roots of (<lam, beta> - 1) != 0."""
    d, (x,) = scale([lam])
    return all(x[i] - x[j] != d for i, j in _positive_pairs(len(x)))


def is_p_weakly_typical(lam: Weight, p: Parabolic) -> bool:
    """Weak typicality relative to the parabolic with Levi composition p.

    Levi roots contribute (<lam, beta> - 1), the remaining positive even
    roots contribute (<lam, gamma> + 1); lam is p-weakly-typical when the
    product is nonzero.  For p = (1,...,1) this says no lam_j = lam_i + 1
    with i < j.
    """
    d, (x,) = scale([lam])
    if not isinstance(p, tuple):
        raise TypeError(f"parabolic {p!r} is a {type(p).__name__}, not a tuple")
    return all(x[i] - x[j] != t * d for i, j, t in _weak_typicality_pairs(p, len(x)))


def degree(lam: Weight) -> Coord:
    """Sum of coordinates, normalized so rho has degree 0."""
    n = len(lam)
    return sum(lam) - n * (n - 1) // 2


def integrality_classes(lam: Weight) -> list:
    """The positions of lam grouped by integrality class, in first-occurrence
    order, as ((r, d), positions): every coordinate there has denominator d
    and fractional part r/d.  Two coordinates differ by an integer exactly
    when they share the key, which is built from ints alone; `_ints` checks lam.

    >>> integrality_classes(weight("1/2", 0, "3/2", 1))
    [((1, 2), [0, 2]), ((0, 1), [1, 3])]
    """
    _ints(lam)
    classes: dict = {}
    for i, c in enumerate(lam):
        d = c.denominator
        classes.setdefault((c.numerator % d, d), []).append(i)
    return list(classes.items())


if __name__ == "__main__":
    import doctest

    doctest.testmod()
