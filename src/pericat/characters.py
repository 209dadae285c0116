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
  * expand_parabolic_delta / _nabla: alternating Levi-orbit expansions of
    parabolic (co)standards into Borel ones
  * delta_sum_to_nabla_sum / nabla_sum_to_delta_sum: greedy leading-term
    collection, processing one degree level at a time (at most `depth`
    levels; NonTerminating carries the leftover if the budget runs out)
  * translation-functor rules theta_delta / theta_nabla / theta_char
  * shift_by_omega and the natural-module tensor rule.

>>> from .weights import weight, borel
>>> theta_nabla(-1, weight(-1, 1, 1), borel(3)) == (
...     nabla(weight(0, 1, 1)) + nabla(weight(-1, 0, 1)) + nabla(weight(-1, 1, 0))
... )
True
"""

from __future__ import annotations

import itertools
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
    parse_weight,
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
    """Immutable-by-convention finite integer combination of flags."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[dict] = None):
        self.terms: dict[tuple[BasisSymbol, Weight], int] = {
            key: c for key, c in (terms or {}).items() if c != 0
        }

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
    n = len(lam)
    out: dict = {}
    sym = symbol(DELTA, borel(n))
    for kappa in itertools.product((0, 2), repeat=n):
        mu = tuple(a - b for a, b in zip(lam, kappa))
        out[(sym, mu)] = out.get((sym, mu), 0) + 1
    return FormalChar(out)


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


def _expand_parabolic(kind: str, lam: Weight, p: Parabolic) -> FormalChar:
    require_p_dominant(lam, p)
    n = len(lam)
    out: dict = {}
    sym = symbol(kind, borel(n))
    for w, lw in levi_weyl_group(p):
        mu = apply_perm(w, lam)
        out[(sym, mu)] = out.get((sym, mu), 0) + (-1) ** lw
    return FormalChar(out)


def expand_parabolic_delta(lam: Weight, p: Parabolic) -> FormalChar:
    """ch Delta^p_lam as the alternating Levi-orbit sum of Borel Deltas."""
    return _expand_parabolic(DELTA, lam, p)


def expand_parabolic_nabla(lam: Weight, p: Parabolic) -> FormalChar:
    """ch Nabla^p_lam as the alternating Levi-orbit sum of Borel Nablas."""
    return _expand_parabolic(NABLA, lam, p)


def to_borel_delta(chi: FormalChar) -> FormalChar:
    """Expand a Delta(p)- or Nabla(p)-basis character into Delta(borel)."""
    sym = chi.sole_basis()
    if sym.kind not in (DELTA, NABLA):
        raise SimpleBasis(f"no Delta-expansion for basis {sym.kind!r}")
    out = ZERO_CHAR
    for (_, lam), c in chi.terms.items():
        if sym.kind == DELTA:
            expanded = expand_parabolic_delta(lam, sym.parabolic)
        else:
            expanded = char_sum(
                coeff * nabla_to_delta(mu)
                for (_, mu), coeff in expand_parabolic_nabla(lam, sym.parabolic).terms.items()
            )
        out = out + c * expanded
    return out


def _leader_expansion(kind: str, lam: Weight, p: Parabolic) -> FormalChar:
    if kind == DELTA:
        return expand_parabolic_delta(lam, p)
    return char_sum(
        c * nabla_to_delta(mu)
        for (_, mu), c in expand_parabolic_nabla(lam, p).terms.items()
    )


def _collect(chi_b: FormalChar, p: Parabolic, depth: int, kind: str) -> FormalChar:
    """Collect a Delta(borel) character into the Delta(p)/Nabla(p) basis by
    eliminating leading terms one degree level at a time."""
    # the remainder grouped by degree: a term's degree is taken as it
    # arrives, and each level is read off without rescanning the others
    remaining: dict[Coord, dict[Weight, int]] = {}
    for (_, lam), c in chi_b.terms.items():
        remaining.setdefault(degree(lam), {})[lam] = c
    collected: dict = {}
    out_sym = symbol(kind, p)
    levels = 0
    while remaining and levels < depth:
        top = max(remaining)
        level = remaining.pop(top)
        for lam in [lam for lam in level if is_p_dominant(lam, p)]:
            c = level.get(lam, 0)
            if c == 0:
                continue
            collected[(out_sym, lam)] = collected.get((out_sym, lam), 0) + c
            for (_, mu), d in _leader_expansion(kind, lam, p).terms.items():
                e = degree(mu)
                row = level if e == top else remaining.setdefault(e, {})
                row[mu] = row.get(mu, 0) - c * d
                if row[mu] == 0:
                    del row[mu]
                    if not row and row is not level:
                        del remaining[e]
        if level:
            raise ValueError(
                "not in the span of the target basis; leftover leading terms "
                + ", ".join(format_weight(lam) for lam in sorted(level))
            )
        levels += 1
    if remaining:
        leftover = {
            (symbol(DELTA, borel(len(lam))), lam): c
            for row in remaining.values() for lam, c in row.items()
        }
        raise NonTerminating(depth, FormalChar(leftover))
    return FormalChar(collected)


def delta_sum_to_nabla_sum(chi: FormalChar, depth: int = 64) -> FormalChar:
    """Rewrite a Delta(p)-basis character as a Nabla(p)-basis character.

    Greedy: at each degree level the p-dominant leading weights are read
    off and their costandard expansions subtracted.  Raises NonTerminating
    if more than `depth` levels are needed (e.g. a lone Delta at n = 1 is
    not a finite sum of Nablas)."""
    sym = chi.sole_basis()
    if sym.kind != DELTA:
        raise SimpleBasis(f"expected a Delta-basis character, got {sym.kind!r}")
    return _collect(to_borel_delta(chi), sym.parabolic, depth, NABLA)


def nabla_sum_to_delta_sum(chi: FormalChar, depth: int = 64) -> FormalChar:
    """Rewrite a Nabla(p)-basis character as a Delta(p)-basis character."""
    sym = chi.sole_basis()
    if sym.kind != NABLA:
        raise SimpleBasis(f"expected a Nabla-basis character, got {sym.kind!r}")
    return _collect(to_borel_delta(chi), sym.parabolic, depth, DELTA)


# --- translation functors -----------------------------------------------------


def theta_delta(a, lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """theta_a on a standard character: sum over lam_i = a of
    Delta_{lam + e_i} + Delta_{lam - e_i}, keeping weights in Sigma_p^+."""
    a = exact(a)
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    out = ZERO_CHAR
    for i, c in enumerate(lam):
        if c == a:
            for sign in (1, -1):
                mu = tuple(
                    x + sign if j == i else x for j, x in enumerate(lam)
                )
                if is_p_dominant(mu, p):
                    out = out + delta(mu, p)
    return out


def theta_nabla(a, lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """theta_a on a costandard character: raise the coordinates equal to a,
    lower the coordinates equal to a + 2, keeping weights in Sigma_p^+."""
    a = exact(a)
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    out = ZERO_CHAR
    for i, c in enumerate(lam):
        mu = None
        if c == a:
            mu = tuple(x + 1 if j == i else x for j, x in enumerate(lam))
        elif c == a + 2:
            mu = tuple(x - 1 if j == i else x for j, x in enumerate(lam))
        if mu is not None and is_p_dominant(mu, p):
            out = out + nabla(mu, p)
    return out


def theta_char(a, chi: FormalChar) -> FormalChar:
    """theta_a term by term on a single-basis Delta(p) or Nabla(p) character."""
    if chi.is_zero():
        return ZERO_CHAR
    sym = chi.sole_basis()
    if sym.kind == DELTA:
        rule = theta_delta
    elif sym.kind == NABLA:
        rule = theta_nabla
    else:
        raise SimpleBasis(f"translation rule undefined on basis {sym.kind!r}")
    return char_sum(c * rule(a, lam, sym.parabolic) for (_, lam), c in chi.terms.items())


def shift_by_omega(chi: FormalChar, k) -> FormalChar:
    """Tensor by the one-dimensional character of weight k*omega_n."""
    return FormalChar(
        {(sym, shift(lam, k)): c for (sym, lam), c in chi.terms.items()}
    )


def tensor_natural_delta(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """Standard-flag character of Delta^p_lam tensored with the natural
    module: sum over i of Delta_{lam + e_i} + Delta_{lam - e_i}, keeping
    weights in Sigma_p^+."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    out = ZERO_CHAR
    for i in range(len(lam)):
        for sign in (1, -1):
            mu = tuple(x + sign if j == i else x for j, x in enumerate(lam))
            if is_p_dominant(mu, p):
                out = out + delta(mu, p)
    return out


def grade_support(chi: FormalChar) -> dict[Coord, FormalChar]:
    """Split a character by the degree of its weights."""
    out: dict[Coord, dict] = {}
    for (sym, lam), c in chi.terms.items():
        out.setdefault(degree(lam), {})[(sym, lam)] = c
    return {d: FormalChar(terms) for d, terms in sorted(out.items())}


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


def char_from_json(doc: dict) -> FormalChar:
    kind = _JSON_TO_KIND[doc["basis"]]
    parabolic = tuple(doc["parabolic"]) if "parabolic" in doc else None
    out: dict = {}
    for term in doc["terms"]:
        lam = parse_weight(",".join(term["weight"]))
        key = (symbol(kind, parabolic), lam)
        out[key] = out.get(key, 0) + int(term["coeff"])
    return FormalChar(out)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
