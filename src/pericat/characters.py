r"""Formal characters: finite integer combinations of flagged basis symbols.

A FormalChar is a finite map (symbol, weight) -> nonzero integer, where the
symbol names a standard-object family: parabolic standard/costandard
characters Delta(p) / Nabla(p), simple and Kac characters of pe(n), and the
gl(n) families even_verma(p) / even_simple / levi_simple(p).  Characters are
never expanded into weight spaces; all identities are manipulated at the
flag level.

Conversions implemented here:
  * nabla_to_delta: the costandard-to-standard expansion
      ch Nabla_lam = sum over kappa in {0,2}^n of ch Delta_{lam-kappa}
  * to_borel_delta: the alternating Levi-orbit expansion of a parabolic
    (co)standard character into Borel standard ones
  * delta_sum_to_nabla_sum / nabla_sum_to_delta_sum: greedy leading-term
    collection, processing one degree level at a time (at most `depth`
    levels; NonTerminating carries the leftover if the budget runs out)
  * translation-functor rules theta_delta / theta_nabla / theta_char
  * shift_by_omega, the twist by a power of the determinant.

>>> from .weights import weight, borel
>>> theta_nabla(-1, weight(-1, 1, 1), borel(3)) == (
...     nabla(weight(0, 1, 1)) + nabla(weight(-1, 0, 1)) + nabla(weight(-1, 1, 0))
... )
True
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional

from .weights import (
    Coord,
    Parabolic,
    Weight,
    borel,
    degree,
    exact,
    format_weight,
    is_p_dominant,
    levi_blocks,
    require_p_dominant,
    shift,
)
from .weyl import apply_perm, length

DELTA = "delta"
NABLA = "nabla"
SIMPLE = "simple"
KAC = "kac"
EVEN_VERMA = "even_verma"
EVEN_SIMPLE = "even_simple"
LEVI_SIMPLE = "levi_simple"

PARABOLIC_KINDS = {DELTA, NABLA, EVEN_VERMA, LEVI_SIMPLE}
PLAIN_KINDS = {SIMPLE, KAC, EVEN_SIMPLE}


class MixedBasis(Exception):
    """Operation needs a single (kind, parabolic) basis."""


class SimpleBasis(Exception):
    """Operation is undefined on simple/Kac-type bases."""


class NonTerminating(Exception):
    """Greedy basis conversion did not clear within the level budget."""

    def __init__(self, depth: int, remainder: "FormalChar"):
        self.depth = depth
        self.remainder = remainder
        super().__init__(
            f"conversion still has {len(remainder.terms)} terms after "
            f"{depth} degree levels"
        )


class BasisSymbol(NamedTuple):
    kind: str
    parabolic: Optional[Parabolic]


def symbol(kind: str, parabolic: Optional[Parabolic] = None) -> BasisSymbol:
    if kind in PARABOLIC_KINDS:
        if parabolic is None:
            raise ValueError(f"basis kind {kind!r} needs a parabolic")
        return BasisSymbol(kind, tuple(parabolic))
    if kind in PLAIN_KINDS:
        if parabolic is not None:
            raise ValueError(f"basis kind {kind!r} takes no parabolic")
        return BasisSymbol(kind, None)
    raise ValueError(f"unknown basis kind {kind!r}")


class FormalChar:
    """Immutable-by-convention finite integer combination of flags: every
    operation returns a character with a terms dict of its own and never
    writes into the terms of a character it was given."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        # dict(terms) reuses the stored key hashes; only zeros are re-hashed
        self.terms: dict[tuple[BasisSymbol, Weight], int] = dict(terms) if terms else {}
        for key in [key for key, c in self.terms.items() if c == 0]:
            del self.terms[key]

    @classmethod
    def single(
        cls, kind: str, lam: Weight, parabolic: Optional[Parabolic] = None, coeff: int = 1
    ) -> "FormalChar":
        return cls({(symbol(kind, parabolic), tuple(lam)): coeff})

    def coeff(self, kind: str, lam: Weight, parabolic: Optional[Parabolic] = None) -> int:
        if parabolic is None and kind in PARABOLIC_KINDS:
            parabolic = (1,) * len(lam)
        return self.terms.get((symbol(kind, parabolic), tuple(lam)), 0)

    def is_zero(self) -> bool:
        return not self.terms

    def support(self) -> set[Weight]:
        return {lam for (_, lam) in self.terms}

    def symbols(self) -> set[BasisSymbol]:
        return {sym for (sym, _) in self.terms}

    def sole_basis(self) -> BasisSymbol:
        syms = self.symbols()
        if len(syms) != 1:
            raise MixedBasis(f"expected one basis, found {sorted(s.kind for s in syms)}")
        return next(iter(syms))

    def __add__(self, other: "FormalChar") -> "FormalChar":
        out = dict(self.terms)
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


ZERO_CHAR = FormalChar()


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


def nabla_to_delta(lam: Weight) -> FormalChar:
    """ch Nabla_lam = sum_{kappa in {0,2}^n} ch Delta_{lam - kappa} (Borel).

    >>> from .weights import weight
    >>> len(nabla_to_delta(weight(0, 1)).terms)
    4
    """
    return to_borel_delta(nabla(lam))


@lru_cache(maxsize=None)
def levi_weyl_group(p: Parabolic) -> tuple:
    """The Levi Weyl group as whole-space permutations, with lengths."""
    blocks = levi_blocks(p)
    n = sum(p)
    out = []
    for parts in itertools.product(*(itertools.permutations(b) for b in blocks)):
        word = [0] * n
        for block, images in zip(blocks, parts):
            for src, dst in zip(block, images):
                word[src] = dst
        w = tuple(word)
        out.append((w, length(w)))
    return tuple(out)


def to_borel_delta(chi: FormalChar) -> FormalChar:
    """Expand a Delta(p)- or Nabla(p)-basis character into Delta(borel)."""
    sym = chi.sole_basis()
    if sym.kind not in (DELTA, NABLA):
        raise SimpleBasis(f"no Delta-expansion for basis {sym.kind!r}")
    b = symbol(DELTA, borel(sum(sym.parabolic)))
    out: dict = {}
    for (_, lam), c in chi.terms.items():
        for mu, d, _ in _leader_terms(sym.kind, lam, sym.parabolic):
            key = (b, mu)
            out[key] = out.get(key, 0) + c * d
    return FormalChar(out)


@lru_cache(maxsize=None)
def _kappas(n: int) -> tuple:
    """(kappa, sum of kappa) for kappa in {0,2}^n."""
    return tuple((kappa, sum(kappa)) for kappa in itertools.product((0, 2), repeat=n))


def _leader_terms(kind: str, lam: Weight, p: Parabolic) -> list:
    """The Delta(borel) expansion of Delta^p_lam (kind DELTA: the alternating
    Levi orbit) or Nabla^p_lam (kind NABLA: each orbit term shifted down by
    every kappa in {0,2}^n) as (mu, coeff, drop) triples, where
    drop = degree(lam) - degree(mu)."""
    require_p_dominant(lam, p)
    orbit = [(apply_perm(w, lam), (-1) ** lw) for w, lw in levi_weyl_group(p)]
    if kind == DELTA:
        return [(mu, sign, 0) for mu, sign in orbit]
    return [
        (tuple(map(operator.sub, mu, kappa)), sign, drop)
        for mu, sign in orbit
        for kappa, drop in _kappas(len(lam))
    ]


def _subtract_leader(
    remaining: dict, kind: str, lam: Weight, p: Parabolic, top: Coord, c: int
) -> None:
    """remaining -= c * (Delta(borel) expansion of the kind(p) flag at lam),
    lam of degree top; remaining maps degree -> weight -> coefficient."""
    rows: dict = {}  # drop -> row, so each degree key is hashed once
    for mu, d, drop in _leader_terms(kind, lam, p):
        row = rows.get(drop)
        if row is None:
            row = rows[drop] = remaining.setdefault(top - drop, {})
        v = row.get(mu, 0) - c * d
        if v:
            row[mu] = v
        else:
            del row[mu]


def _collect(chi: FormalChar, depth: int, source: str, kind: str) -> FormalChar:
    """Rewrite a source(p)-basis character in the kind(p) basis by expanding
    it into Delta(borel) and eliminating leading terms one degree level at
    a time."""
    src = chi.sole_basis()
    if src.kind != source:
        raise SimpleBasis(f"expected a {source.title()}-basis character, got {src.kind!r}")
    p = src.parabolic
    # the remainder grouped by degree; a row emptied by cancellation stays
    # until it is the top one, and is then dropped without using a level
    remaining: dict[Coord, dict[Weight, int]] = {}
    for (_, lam), c in chi.terms.items():
        _subtract_leader(remaining, src.kind, lam, p, degree(lam), -c)
    collected: dict = {}
    out_sym = symbol(kind, p)
    levels = 0
    while remaining and levels < depth:
        top = max(remaining)
        level = remaining[top]
        if not level:
            del remaining[top]
            continue
        for lam in [lam for lam in level if is_p_dominant(lam, p)]:
            c = level.get(lam, 0)
            if c == 0:
                continue
            collected[(out_sym, lam)] = collected.get((out_sym, lam), 0) + c
            _subtract_leader(remaining, kind, lam, p, top, c)
        del remaining[top]
        if level:
            raise ValueError(
                "not in the span of the target basis; leftover leading terms "
                + ", ".join(format_weight(lam) for lam in sorted(level))
            )
        levels += 1
    b = symbol(DELTA, borel(sum(p)))
    leftover = {(b, lam): c for row in remaining.values() for lam, c in row.items()}
    if leftover:
        raise NonTerminating(depth, FormalChar(leftover))
    return FormalChar(collected)


def delta_sum_to_nabla_sum(chi: FormalChar, depth: int = 64) -> FormalChar:
    """Rewrite a Delta(p)-basis character as a Nabla(p)-basis character.

    Greedy: at each degree level the p-dominant leading weights are read
    off and their costandard expansions subtracted.  Raises NonTerminating
    if more than `depth` levels are needed (e.g. a lone Delta at n = 1 is
    not a finite sum of Nablas)."""
    return _collect(chi, depth, DELTA, NABLA)


def nabla_sum_to_delta_sum(chi: FormalChar, depth: int = 64) -> FormalChar:
    """Rewrite a Nabla(p)-basis character as a Delta(p)-basis character."""
    return _collect(chi, depth, NABLA, DELTA)


# --- translation functors -----------------------------------------------------


def theta_delta(a, lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """theta_a on a standard character: sum over lam_i = a of
    Delta_{lam + e_i} + Delta_{lam - e_i}, keeping weights in Sigma_p^+."""
    return theta_char(a, delta(lam, p))


def theta_nabla(a, lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """theta_a on a costandard character: raise the coordinates equal to a,
    lower the coordinates equal to a + 2, keeping weights in Sigma_p^+."""
    return theta_char(a, nabla(lam, p))


def theta_char(a, chi: FormalChar) -> FormalChar:
    """theta_a term by term on a single-basis Delta(p) or Nabla(p) character."""
    if chi.is_zero():
        return FormalChar()
    sym = chi.sole_basis()
    if sym.kind not in (DELTA, NABLA):
        raise SimpleBasis(f"translation rule undefined on basis {sym.kind!r}")
    a = exact(a)
    a2 = a + 2
    p = sym.parabolic
    out: dict = {}
    for (_, lam), c in chi.terms.items():
        require_p_dominant(lam, p)
        if sym.kind == DELTA:
            steps = [(i, s) for i, x in enumerate(lam) if x == a for s in (1, -1)]
        else:
            steps = [(i, 1 if x == a else -1) for i, x in enumerate(lam) if x in (a, a2)]
        for i, s in steps:
            mu = lam[:i] + (lam[i] + s,) + lam[i + 1 :]
            if is_p_dominant(mu, p):
                key = (sym, mu)
                out[key] = out.get(key, 0) + c
    return FormalChar(out)


def shift_by_omega(chi: FormalChar, k) -> FormalChar:
    """Tensor by the one-dimensional character of weight k*omega_n."""
    return FormalChar(
        {(sym, shift(lam, k)): c for (sym, lam), c in chi.terms.items()}
    )


# --- serialization ------------------------------------------------------------

_KIND_TO_JSON = {
    DELTA: "delta",
    NABLA: "nabla",
    SIMPLE: "simple",
    KAC: "kac",
    EVEN_VERMA: "even_verma",
    EVEN_SIMPLE: "even_simple",
    LEVI_SIMPLE: "levi_simple",
}
_JSON_TO_KIND = {v: k for k, v in _KIND_TO_JSON.items()}


def char_to_json(chi: FormalChar, empty_basis: str = DELTA) -> dict:
    """Serialize a single-basis character; weights as exact strings."""
    if chi.is_zero():
        return {"basis": _KIND_TO_JSON[empty_basis], "terms": []}
    sym = chi.sole_basis()
    doc: dict = {"basis": _KIND_TO_JSON[sym.kind]}
    if sym.parabolic is not None:
        doc["parabolic"] = list(sym.parabolic)
    doc["terms"] = [
        {"weight": [str(c) for c in lam], "coeff": coeff}
        for (_, lam), coeff in sorted(
            chi.terms.items(), key=lambda kv: (-degree(kv[0][1]), kv[0][1])
        )
    ]
    return doc


def char_from_json(doc) -> FormalChar:
    """Inverse of char_to_json; bad weight entries and coefficients raise ValueError."""
    if not isinstance(doc, dict):
        raise ValueError("a character document must be a JSON object")
    kind = _JSON_TO_KIND[doc["basis"]]
    parabolic = tuple(doc["parabolic"]) if "parabolic" in doc else None
    out: dict = {}
    for k, term in enumerate(doc["terms"]):
        coeff = term["coeff"]
        if type(coeff) is not int:
            raise ValueError(f"term {k}: coeff {coeff!r} is not an integer")
        try:
            lam = tuple(exact(c) for c in term["weight"])
        except TypeError as exc:
            raise ValueError(f"term {k}: {exc}") from None
        if not lam:
            raise ValueError(f"term {k}: empty weight")
        key = (symbol(kind, parabolic), lam)
        out[key] = out.get(key, 0) + coeff
    return FormalChar(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
