r"""Formal characters: finite integer combinations of the flags of one basis.

A FormalChar is a finite sum of the flags of one basis, kind(p): the
parabolic standard characters Delta(p) or the costandard characters
Nabla(p).  Characters are never expanded into weight spaces; all
identities are manipulated at the flag level.

Conversions work in Delta(p) coordinates, which are the p-dominant
coefficients of the Borel expansion (w.lam is not p-dominant for w != 1 in W_p):
  * the kappa-rule ch Nabla^p_lam = sum over kappa in {0,2}^n of
    ch Delta^p_{lam-kappa}, with lam-kappa sorted into Sigma_p^+ block by block
    at the sign of the sort (0 if a Levi block repeats a coordinate)
  * nabla_sum_to_delta_sum (the kappa-rule in one pass) and
    delta_sum_to_nabla_sum (greedy, one degree level at a time), which
    raises NonTerminating when no finite Nabla(p) sum exists: Nabla^p_x has
    one Delta(p) term 2n below x, so no answer has a Nabla term below the
    lowest degree of its input plus 2n, and what is left is expanded over
    the Levi orbits into Delta(borel)
  * the translation-functor rule theta_char
  * shift_by_omega, the twist by a power of the determinant.

A character is stored once, as its kind, its parabolic p, a scale d and
its rows: each weight times d, an int tuple, mapped to its nonzero
coefficient.  The constructor is the one place a character is built from
weights: it checks the kind, p's parts and each weight's coordinates
(ints and Fractions only), scales the weights by their least common
denominator d, and checks once that each lies in Sigma_p^+, on those ints
by `is_p_dominant`'s own test `_falls` (the Borel has no Levi pairs, so a
weight's length is its whole check there); `require_p_dominant` runs, on
the weight unscaled, only to raise its error.  Every operation reads the
rows and returns rows, which lie in Sigma_p^+ by construction: kappa steps
by 2d, theta by d (d is made finer by a's denominator, if need be) and the
omega-shift by k*d, and no Fraction is hashed or added.  An integral
character has d = 1.  `terms`, the (basis, weight) -> coefficient view, is
built from the rows each time it is read.

>>> from .weights import weight, borel
>>> theta_char(-1, nabla(weight(-1, 1, 1), borel(3))) == (
...     nabla(weight(0, 1, 1)) + nabla(weight(-1, 0, 1)) + nabla(weight(-1, 1, 0))
... )
True
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import lru_cache
from math import lcm
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Optional

from .weights import (
    Parabolic,
    Weight,
    _falls,
    _ints,
    _levi_pairs,
    _parts,
    borel,
    exact,
    format_weight,
    require_p_dominant,
    scale,
    unscale,
)
from .weyl import apply_perm, length, levi_weyl_group

DELTA = "delta"
NABLA = "nabla"


class MixedBasis(Exception):
    """Operation needs a single (kind, parabolic) basis."""


class SimpleBasis(Exception):
    """A basis conversion was given a character outside the basis it
    converts from."""


class NonTerminating(Exception):
    """A Delta(p)-basis character is no finite Nabla(p) sum; `remainder` is
    what the greedy left, in Delta(borel)."""

    def __init__(self, remainder: "FormalChar"):
        self.remainder = remainder
        super().__init__(
            f"no finite costandard sum exists; {len(remainder.rows)} terms remain"
        )


class BasisSymbol(NamedTuple):
    """The basis half of a key of `FormalChar.terms`."""

    kind: str
    parabolic: Parabolic


class FormalChar:
    """A finite integer combination of the flags of one basis, and a value:
    `rows` maps each weight, scaled by d, to its nonzero coefficient, and
    is never written once the character is built.  The zero character has
    no basis: its kind and parabolic are None."""

    __slots__ = ("kind", "parabolic", "d", "rows")

    def __init__(
        self,
        kind: Optional[str] = None,
        parabolic: Optional[Parabolic] = None,
        terms: Optional[Mapping[Weight, int]] = None,
    ):
        """The character sum of c * kind(parabolic)_lam over terms {lam: c}:
        ValueError names an unknown kind or a weight outside Sigma_p^+, and
        TypeError a parabolic that is not a tuple of ints or a coordinate
        that is not an int or Fraction."""
        self.kind = self.parabolic = None
        self.d, self.rows = 1, {}
        if kind is None and not terms:
            return
        if kind not in (DELTA, NABLA):
            raise ValueError(f"unknown basis kind {kind!r}")
        if parabolic is None:
            raise ValueError(f"basis kind {kind!r} needs a parabolic")
        _parts(parabolic)
        terms = {lam: c for lam, c in (terms or {}).items() if c}
        if not terms:
            return
        d, xs = scale(list(terms))
        _guard(xs, parabolic, d)
        self.kind, self.parabolic, self.d, self.rows = kind, parabolic, d, dict(zip(xs, terms.values()))

    def _at(self, d: int) -> dict:
        """The rows scaled by d, a multiple of self.d."""
        m = d // self.d
        return self.rows if m == 1 else {tuple([v * m for v in x]): c for x, c in self.rows.items()}

    def items(self) -> Iterable[tuple[Weight, int]]:
        """The (weight, coefficient) pairs, in the order of the rows."""
        return unscale(self.rows, self.d)

    @property
    def terms(self) -> Mapping[tuple[BasisSymbol, Weight], int]:
        """A read-only mapping (BasisSymbol(kind, parabolic), weight) ->
        coefficient, built from the rows on each read."""
        sym = BasisSymbol(self.kind, self.parabolic)
        return MappingProxyType({(sym, lam): c for lam, c in self.items()})

    def coeff(self, kind: str, lam: Weight, parabolic: Optional[Parabolic] = None) -> int:
        if (kind, parabolic or borel(len(lam))) != (self.kind, self.parabolic):
            return 0
        return self.rows.get(tuple([c * self.d for c in lam]), 0)  # a Fraction off Z is no key

    def is_zero(self) -> bool:
        return not self.rows

    def support(self) -> set[Weight]:
        return {lam for lam, _ in self.items()}

    def __add__(self, other: "FormalChar") -> "FormalChar":
        return char_sum((self, other))

    def __sub__(self, other: "FormalChar") -> "FormalChar":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "FormalChar":
        return _char(self.kind, self.parabolic, self.d, {x: k * c for x, c in self.rows.items()})

    def __neg__(self) -> "FormalChar":
        return (-1) * self

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalChar) or len(self.rows) != len(other.rows):
            return False
        d = lcm(self.d, other.d)  # equal characters may hold different scales
        return (self.kind, self.parabolic) == (other.kind, other.parabolic) and self._at(d) == other._at(d)

    def __hash__(self):
        return hash((self.kind, self.parabolic, frozenset(self.items())))

    def __repr__(self) -> str:
        if not self.rows:
            return "FormalChar(0)"
        bits = []
        for lam, c in unscale(dict(sorted(self.rows.items())), self.d):  # scaling keeps the order
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{self.kind}[{format_weight(lam)}]")
        return "FormalChar(" + " + ".join(bits) + ")"


def _char(kind: str, p: Parabolic, d: int, rows: dict) -> FormalChar:
    """An operation's answer, rows mapping each of its weights, scaled by
    d, to its coefficient: rows in Sigma_p^+, held as they are once their
    zero coefficients are dropped."""
    if 0 in rows.values():
        rows = {x: c for x, c in rows.items() if c}
    if not rows:
        return FormalChar()
    chi = FormalChar.__new__(FormalChar)
    chi.kind, chi.parabolic, chi.d, chi.rows = kind, p, d, rows
    return chi


def delta(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    _ints(lam)  # a list weight is named, not hashed
    return FormalChar(DELTA, p or borel(len(lam)), {lam: 1})


def nabla(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    _ints(lam)
    return FormalChar(NABLA, p or borel(len(lam)), {lam: 1})


def char_sum(chars: Iterable[FormalChar]) -> FormalChar:
    """The sum of characters of one basis, held at the lcm of their scales;
    MixedBasis names two bases."""
    chars = [chi for chi in chars if chi.rows]
    if not chars:
        return FormalChar()
    kind, p = chars[0].kind, chars[0].parabolic
    d = lcm(*(chi.d for chi in chars))
    out: dict = {}
    for chi in chars:
        if (chi.kind, chi.parabolic) != (kind, p):
            raise MixedBasis(f"expected one basis, found {kind}{p} and {chi.kind}{chi.parabolic}")
        for x, c in chi._at(d).items():
            out[x] = out.get(x, 0) + c
    return _char(kind, p, d, out)


# --- expansions ---------------------------------------------------------------


def _borel(p: Parabolic, d: int, rows: dict) -> FormalChar:
    """Delta(p) rows (degree -> weight scaled by d -> coefficient) in
    Delta(borel); the Levi orbits of distinct weights in Sigma_p^+ are
    disjoint and repeat no weight, so no two terms meet."""
    return _char(DELTA, borel(sum(p)), d, {
        apply_perm(w, x): -c if lw % 2 else c
        for row in rows.values() for x, c in row.items() for w, lw in levi_weyl_group(p)
    })


@lru_cache(maxsize=4096)
def _block_kappas(two: int, *block: int) -> tuple:
    """The kappa-rule on one Levi block, kappa in {0, two}^k: (mu, sign,
    drop) for each kappa leaving block - kappa without a repeat, where mu is
    block - kappa in decreasing order and sign is the sign of that sort."""
    out = []
    for kappa in itertools.product((0, two), repeat=len(block)):
        nu = list(map(operator.sub, block, kappa))
        order = sorted(range(len(nu)), key=nu.__getitem__, reverse=True)
        mu = tuple(nu[i] for i in order)
        if all(map(operator.gt, mu, mu[1:])):
            out.append((mu, (-1) ** length(order), sum(kappa)))
    return tuple(out)


def _flag_terms(x: tuple, p: Parabolic, d: int) -> list:
    """The Delta(p) form of Nabla^p_x, x a weight of Sigma_p^+ scaled by d,
    as (mu, coeff, drop) triples, drop = sum(x) - sum(mu): the sum over
    kappa in {0,2d}^n of Delta^p_{x - kappa}, each sorted into Sigma_p^+
    block by block at the sign of the sort, or 0 if a Levi block repeats a
    coordinate."""
    terms = [((), 1, 0)]
    for size, stop in zip(p, itertools.accumulate(p)):
        options = _block_kappas(2 * d, *x[stop - size : stop])
        terms = [(mu + part, s * t, e + f) for mu, s, e in terms for part, t, f in options]
    return terms


def _subtract_leader(remaining: dict, x: tuple, p: Parabolic, d: int, top: int, c: int) -> None:
    """remaining -= c * (Delta(p) form of Nabla^p_x), x scaled by d with
    sum top; remaining maps sum -> scaled weight -> coefficient."""
    rows: dict = {}  # drop -> row, so each degree key is hashed once
    for mu, k, drop in _flag_terms(x, p, d):
        row = rows.get(drop)
        if row is None:
            row = rows[drop] = remaining.setdefault(top - drop, {})
        v = row.get(mu, 0) - c * k
        if v:
            row[mu] = v
        else:
            del row[mu]


def _guard(xs: list, p: Parabolic, d: int) -> None:
    """Raise require_p_dominant's error, naming the weight unscaled, for the
    first of the weights xs, scaled by d, that is not in Sigma_p^+: the Levi
    pairs are read once (from the first weight's length, so its length error
    is the one raised) and each weight is tested on its ints; at the Borel
    only its length."""
    n = len(xs[0])
    levi = _levi_pairs(p, n)
    for x in xs:
        if len(x) != n or levi and not _falls(x, levi, d):
            require_p_dominant(tuple(Fraction(c, d) for c in x), p)


def _delta_rows(chi: FormalChar, kind: str) -> tuple:
    """(p, d, the Delta(p) form of the nonzero chi scaled by d, by degree),
    chi in the kind(p) basis; a row emptied by cancellation stays as an
    empty dict."""
    if chi.kind != kind:
        raise SimpleBasis(f"expected a {kind.title()}-basis character, got {chi.kind!r}")
    p, d = chi.parabolic, chi.d
    rows: dict[int, dict[tuple, int]] = {}
    for x, c in chi.rows.items():
        if kind == DELTA:  # the rows of chi are distinct
            rows.setdefault(sum(x), {})[x] = c
        else:
            _subtract_leader(rows, x, p, d, sum(x), -c)
    return p, d, rows


def delta_sum_to_nabla_sum(chi: FormalChar) -> FormalChar:
    """Rewrite a Delta(p)-basis character as a Nabla(p)-basis character.

    Greedy, one degree level at a time: each weight of the top degree is
    cleared by subtracting its costandard (only kappa = 0 keeps the degree).
    Nabla^p_x has exactly one Delta(p) term at drop 2dn, x - 2d(1,..,1) with
    coefficient 1, so the lowest Nabla terms of a finite answer leave Delta
    terms that nothing cancels: no answer has a Nabla term below the floor,
    the lowest degree of chi plus 2dn.  The greedy's leaders are forced, so
    a leader below the floor raises NonTerminating, with the rest in
    Delta(borel) (a lone Delta is no finite sum)."""
    if chi.is_zero():
        return FormalChar()
    p, d, remaining = _delta_rows(chi, DELTA)
    floor = min(remaining) + 2 * d * sum(p)
    collected: dict = {}
    while remaining:
        top = max(remaining)
        level = remaining[top]
        if level and top < floor:
            raise NonTerminating(_borel(p, d, remaining))
        for x, c in list(level.items()):  # each subtraction deletes its x
            collected[x] = c
            _subtract_leader(remaining, x, p, d, top, c)
        del remaining[top]
    return _char(NABLA, p, d, collected)


def nabla_sum_to_delta_sum(chi: FormalChar) -> FormalChar:
    """Rewrite a Nabla(p)-basis character as a Delta(p)-basis character by
    the kappa-rule, in one pass."""
    if chi.is_zero():
        return FormalChar()
    p, d, rows = _delta_rows(chi, NABLA)
    return _char(DELTA, p, d, {x: c for row in rows.values() for x, c in row.items()})


# --- translation functors -----------------------------------------------------


def theta_char(a, chi: FormalChar) -> FormalChar:
    """theta_a term by term on a single-basis Delta(p) or Nabla(p) character:
    Delta_lam goes to the sum over lam_i = a of Delta_{lam + e_i} +
    Delta_{lam - e_i}; Nabla_lam raises the coordinates equal to a and
    lowers those equal to a + 2; only weights in Sigma_p^+ are kept."""
    return _theta_images((a,), chi)[0]


def _theta_images(alphabet, chi: FormalChar) -> list[FormalChar]:
    """[theta_char(a, chi) for a in alphabet], in one pass over chi's rows."""
    if chi.is_zero():
        return [FormalChar() for _ in alphabet]
    alphabet = tuple(map(exact, alphabet))
    kind, p = chi.kind, chi.parabolic
    d = lcm(chi.d, *(a.denominator for a in alphabet))  # an a of a finer denominator scales chi too
    alphabet = [a.numerator * (d // a.denominator) for a in alphabet]
    outs, moves = [], {}  # moves: coordinate -> (image, step) for each image it moves in
    for a in alphabet:
        outs.append(out := {})
        moves.setdefault(a, []).append((out, d))
        moves.setdefault(a if kind == DELTA else a + 2 * d, []).append((out, -d))
    edges = {0, *itertools.accumulate(p)}  # where the Levi blocks start and end
    for x, c in chi._at(d).items():
        for i, v in enumerate(x):
            for out, s in moves.get(v, ()):
                # the moved weight stays in Sigma_p^+ unless the move closes
                # the gap, a positive multiple of d, to its Levi-block neighbour
                k = i if s > 0 else i + 1
                if k in edges or x[k - 1] - x[k] != d:
                    mu = x[:i] + (v + s,) + x[i + 1 :]
                    out[mu] = out.get(mu, 0) + c
    return [_char(kind, p, d, out) for out in outs]


def shift_by_omega(chi: FormalChar, k) -> FormalChar:
    """Tensor by the one-dimensional character of weight k*omega_n; chi itself
    at k = 0.  A float or bool k raises TypeError, a zero one too.  Each
    scaled coordinate moves by k*d, d made finer by k's denominator if need be."""
    k = exact(k)
    if not k or chi.is_zero():
        return chi
    d = lcm(chi.d, k.denominator)
    s = k.numerator * (d // k.denominator)
    return _char(chi.kind, chi.parabolic, d, {tuple([v + s for v in x]): c for x, c in chi._at(d).items()})


# --- serialization ------------------------------------------------------------


def char_to_json(chi: FormalChar, empty_basis: str = DELTA) -> dict:
    """Serialize a single-basis character; weights as exact strings."""
    if chi.is_zero():
        return {"basis": empty_basis, "terms": []}
    rows = dict(sorted(chi.rows.items(), key=lambda kv: (-sum(kv[0]), kv[0])))  # by degree, then weight
    doc: dict = {"basis": chi.kind, "parabolic": list(chi.parabolic)}
    doc["terms"] = [
        {"weight": [str(c) for c in lam], "coeff": coeff} for lam, coeff in unscale(rows, chi.d)
    ]
    return doc


def char_from_json(doc) -> FormalChar:
    """Inverse of char_to_json; a bad basis, parabolic, terms list, weight
    entry or coefficient, a missing field, or a weight whose length is not
    that of the parabolic raises ValueError.  Only the zero character may
    leave the parabolic out."""
    if not isinstance(doc, dict):
        raise ValueError("a character document must be a JSON object")
    kind = doc.get("basis")
    if kind not in (DELTA, NABLA):
        raise ValueError(f"unknown basis {kind!r}")
    parabolic = doc.get("parabolic")
    if parabolic is not None:
        if type(parabolic) is not list or any(type(x) is not int or x < 1 for x in parabolic):
            raise ValueError(f"parabolic {parabolic!r} is not a list of positive integers")
        parabolic = tuple(parabolic)
    terms = doc.get("terms")
    if type(terms) is not list or any(type(term) is not dict for term in terms):
        raise ValueError("terms must be a list of objects")
    if not terms:
        return FormalChar()
    if parabolic is None:
        raise ValueError(f"basis kind {kind!r} needs a parabolic")
    n = sum(parabolic)
    out: dict = {}
    for k, term in enumerate(terms):
        for field in ("coeff", "weight"):
            if field not in term:
                raise ValueError(f"term {k}: no {field!r}")
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"term {k}: coeff {coeff!r} is not an integer")
        if type(term["weight"]) is not list:
            raise ValueError(f"term {k}: weight {term['weight']!r} is not a list")
        try:
            lam = tuple(exact(c) for c in term["weight"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"term {k}: {exc}") from None
        if not lam:
            raise ValueError(f"term {k}: empty weight")
        if len(lam) != n:
            raise ValueError(f"term {k}: weight has {len(lam)} entries, expected {n}")
        out[lam] = out.get(lam, 0) + coeff
    return FormalChar(kind, parabolic, out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
