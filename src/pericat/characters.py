r"""Formal characters: finite integer combinations of flagged basis symbols.

A FormalChar is a finite map (symbol, weight) -> nonzero integer, where the
symbol names one of the two flag families of O^p: the parabolic standard
characters Delta(p) and costandard characters Nabla(p).  Characters are never
expanded into weight spaces; all identities are manipulated at the flag
level.

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

The conversions and theta keep their rows on scaled ints: weights times the
least common denominator d of a character's coordinates (and theta's a), so
kappa steps by 2d and theta by d; an integral character has d = 1.  delta
and nabla refuse a coordinate that is not an int or Fraction.  Each
operation certifies its input once: one basis, exact coordinates, and every
term in Sigma_p^+, tested on those ints by `is_p_dominant`'s own test
`_falls` with the Levi pairs of p read once (the Borel has none, so a term's
length is its whole check there); `require_p_dominant` runs, on the term
unscaled, only to raise its error.  Each character keeps its certified form
with its scaled weights, so theta called one a at a time on the same
character certifies it once.  The conversions and theta return their
answer in that form, its scaled rows, which are in Sigma_p^+ by
construction: the next operation reads them as they are, and the (symbol,
weight) terms are built from them only when they are first read.

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
    borel,
    degree,
    exact,
    format_weight,
    require_p_dominant,
    scale,
    shift,
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
            f"no finite costandard sum exists; {len(remainder.terms)} terms remain"
        )


class BasisSymbol(NamedTuple):
    kind: str
    parabolic: Parabolic


def symbol(kind: str, parabolic: Optional[Parabolic]) -> BasisSymbol:
    if kind not in (DELTA, NABLA):
        raise ValueError(f"unknown basis kind {kind!r}")
    if parabolic is None:
        raise ValueError(f"basis kind {kind!r} needs a parabolic")
    if not isinstance(parabolic, tuple):
        raise TypeError(f"parabolic {parabolic!r} is a {type(parabolic).__name__}, not a tuple")
    if any(type(part) is not int for part in parabolic):  # a bool or float part is refused too
        raise TypeError(f"parabolic {parabolic!r} has a part that is not an int")
    return BasisSymbol(kind, parabolic)


class FormalChar:
    """A finite integer combination of flags, and a value: `terms` is a
    read-only mapping over a dict of the character's own, so a write raises
    TypeError, and no coefficient is 0.  The first operation on a character
    stores its certified form in `_form` (see `_certified`).  A conversion
    or theta returns a character holding only that form (see `_result`);
    its terms are built from the form's rows on the first read, and later
    reads are plain slot reads."""

    __slots__ = ("terms", "_form")

    def __init__(self, terms: Optional[Mapping] = None):
        # both copies reuse the stored key hashes; dict() of a view would not
        own = terms.copy() if type(terms) is MappingProxyType else dict(terms or {})
        for key in [key for key, c in own.items() if c == 0]:
            del own[key]
        self.terms: Mapping[tuple[BasisSymbol, Weight], int] = MappingProxyType(own)
        self._form = None

    def __getattr__(self, name):
        # reached only for an unset slot: the terms of an operation's result,
        # built in the order of its rows
        if name != "terms":
            raise AttributeError(name)
        sym, d, rows = self._form
        self.terms = terms = MappingProxyType({(sym, lam): c for lam, c in unscale(rows, d)})
        return terms

    def __reduce__(self):
        # a read-only view does not pickle: copy and pickle rebuild from its dict
        return FormalChar, (self.terms.copy(),)

    @classmethod
    def single(cls, kind: str, lam: Weight, parabolic: Parabolic, coeff: int = 1) -> "FormalChar":
        _ints(lam)
        return cls({(symbol(kind, parabolic), lam): coeff})

    def coeff(self, kind: str, lam: Weight, parabolic: Optional[Parabolic] = None) -> int:
        return self.terms.get((symbol(kind, parabolic or borel(len(lam))), tuple(lam)), 0)

    def is_zero(self) -> bool:
        return self._form is None and not self.terms  # a certified form is nonzero

    def support(self) -> set[Weight]:
        return {lam for (_, lam) in self.terms}

    def symbols(self) -> set[BasisSymbol]:
        return set(map(operator.itemgetter(0), self.terms))

    def sole_basis(self) -> BasisSymbol:
        syms = self.symbols()
        if len(syms) != 1:
            raise MixedBasis(f"expected one basis, found {sorted(s.kind for s in syms)}")
        return next(iter(syms))

    def __add__(self, other: "FormalChar") -> "FormalChar":
        out = self.terms.copy()
        for key, c in other.terms.items():
            out[key] = out.get(key, 0) + c
        return FormalChar(out)

    def __sub__(self, other: "FormalChar") -> "FormalChar":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "FormalChar":
        return FormalChar({key: k * c for key, c in self.terms.items()})

    def __neg__(self) -> "FormalChar":
        return (-1) * self

    def __eq__(self, other) -> bool:
        return isinstance(other, FormalChar) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self) -> str:
        if not self.terms:
            return "FormalChar(0)"
        bits = []
        for (sym, lam), c in sorted(
            self.terms.items(), key=lambda kv: (kv[0][0], kv[0][1])
        ):
            coeff = "" if c == 1 else f"{c}*"
            bits.append(f"{coeff}{sym.kind}[{format_weight(lam)}]")
        return "FormalChar(" + " + ".join(bits) + ")"


def delta(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    return FormalChar.single(DELTA, lam, p or borel(len(lam)))


def nabla(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    return FormalChar.single(NABLA, lam, p or borel(len(lam)))


def char_sum(chars: Iterable[FormalChar]) -> FormalChar:
    out: dict = {}
    for chi in chars:
        for key, c in chi.terms.items():
            out[key] = out.get(key, 0) + c
    return FormalChar(out)


# --- expansions ---------------------------------------------------------------


def _borel(p: Parabolic, d: int, rows: dict) -> FormalChar:
    """Delta(p) rows (degree -> weight scaled by d -> coefficient) in
    Delta(borel); the Levi orbits of distinct weights in Sigma_p^+ are
    disjoint and repeat no weight, so no two terms meet."""
    b = symbol(DELTA, borel(sum(p)))
    return FormalChar({
        (b, apply_perm(w, lam)): -c if lw % 2 else c
        for row in rows.values() for lam, c in unscale(row, d) for w, lw in levi_weyl_group(p)
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


def _certified(chi: FormalChar, kind: Optional[str] = None) -> tuple:
    """(sym, d, (x, coeff) per term) for the nonzero chi: its one basis
    (which must be of the kind given, if any), a common denominator d of its
    coordinates and its weights x scaled by d, in Sigma_p^+.  The form
    (sym, d, {x: coeff}) is stored on chi, as `_result` stores an
    operation's answer, and reused by every later operation."""
    sym = chi._form[0] if chi._form else chi.sole_basis()
    if kind is not None and sym.kind != kind:
        raise SimpleBasis(f"expected a {kind.title()}-basis character, got {sym.kind!r}")
    if chi._form is None:
        d, xs = scale([lam for _, lam in chi.terms])
        _guard(xs, sym.parabolic, d)  # the leaders derived from each x are in Sigma_p^+
        chi._form = (sym, d, dict(zip(xs, chi.terms.values())))
    _, d, rows = chi._form
    return sym, d, rows.items()


def _result(sym: BasisSymbol, d: int, rows: dict) -> FormalChar:
    """An operation's answer, rows mapping each of its weights, scaled by
    d, to its coefficient: held as its certified form, with no terms until
    they are read (see FormalChar.__getattr__)."""
    if 0 in rows.values():
        rows = {x: c for x, c in rows.items() if c}
    if not rows:
        return FormalChar()
    chi = FormalChar.__new__(FormalChar)
    chi._form = (sym, d, rows)
    return chi


def _delta_rows(chi: FormalChar, kind: Optional[str] = None) -> tuple:
    """(p, d, the Delta(p) form of chi scaled by d, by degree), chi in the
    kind(p) basis if a kind is given; a row emptied by cancellation stays as
    an empty dict."""
    sym, d, pairs = _certified(chi, kind)
    p = sym.parabolic
    rows: dict[int, dict[tuple, int]] = {}
    for x, c in pairs:
        if sym.kind == DELTA:  # the keys of chi are distinct, and so are the x
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
    return _result(symbol(NABLA, p), d, collected)


def nabla_sum_to_delta_sum(chi: FormalChar) -> FormalChar:
    """Rewrite a Nabla(p)-basis character as a Delta(p)-basis character by
    the kappa-rule, in one pass."""
    if chi.is_zero():
        return FormalChar()
    p, d, rows = _delta_rows(chi, NABLA)
    return _result(symbol(DELTA, p), d, {x: c for row in rows.values() for x, c in row.items()})


# --- translation functors -----------------------------------------------------


def theta_char(a, chi: FormalChar) -> FormalChar:
    """theta_a term by term on a single-basis Delta(p) or Nabla(p) character:
    Delta_lam goes to the sum over lam_i = a of Delta_{lam + e_i} +
    Delta_{lam - e_i}; Nabla_lam raises the coordinates equal to a and
    lowers those equal to a + 2; only weights in Sigma_p^+ are kept."""
    return _theta_images((a,), chi)[0]


def _theta_images(alphabet, chi: FormalChar) -> list[FormalChar]:
    """[theta_char(a, chi) for a in alphabet], with chi certified once."""
    if chi.is_zero():
        return [FormalChar() for _ in alphabet]
    alphabet = tuple(map(exact, alphabet))
    sym, d, pairs = _certified(chi)
    p = sym.parabolic
    m = lcm(d, *(a.denominator for a in alphabet)) // d
    if m > 1:  # an a of a finer denominator: scale chi by it too
        d, pairs = d * m, [(tuple([v * m for v in x]), c) for x, c in pairs]
    alphabet = [a.numerator * (d // a.denominator) for a in alphabet]
    outs, moves = [], {}  # moves: coordinate -> (image, step) for each image it moves in
    for a in alphabet:
        outs.append(out := {})
        moves.setdefault(a, []).append((out, d))
        moves.setdefault(a if sym.kind == DELTA else a + 2 * d, []).append((out, -d))
    edges = {0, *itertools.accumulate(p)}  # where the Levi blocks start and end
    for x, c in pairs:
        for i, v in enumerate(x):
            for out, s in moves.get(v, ()):
                # the moved weight stays in Sigma_p^+ unless the move closes
                # the gap, a positive multiple of d, to its Levi-block neighbour
                k = i if s > 0 else i + 1
                if k in edges or x[k - 1] - x[k] != d:
                    mu = x[:i] + (v + s,) + x[i + 1 :]
                    out[mu] = out.get(mu, 0) + c
    return [_result(sym, d, out) for out in outs]


def shift_by_omega(chi: FormalChar, k) -> FormalChar:
    """Tensor by the one-dimensional character of weight k*omega_n; chi itself
    at k = 0.  A float or bool k raises TypeError, a zero one too."""
    if not exact(k):
        return chi
    return FormalChar({(sym, shift(lam, k)): c for (sym, lam), c in chi.terms.items()})


# --- serialization ------------------------------------------------------------


def char_to_json(chi: FormalChar, empty_basis: str = DELTA) -> dict:
    """Serialize a single-basis character; weights as exact strings."""
    if chi.is_zero():
        return {"basis": empty_basis, "terms": []}
    sym = chi.sole_basis()
    doc: dict = {"basis": sym.kind, "parabolic": list(sym.parabolic)}
    doc["terms"] = [
        {"weight": [str(c) for c in lam], "coeff": coeff}
        for (_, lam), coeff in sorted(
            chi.terms.items(), key=lambda kv: (-degree(kv[0][1]), kv[0][1])
        )
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
    sym = symbol(kind, parabolic)
    n = sum(sym.parabolic)
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
        key = (sym, lam)
        out[key] = out.get(key, 0) + coeff
    return FormalChar(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
