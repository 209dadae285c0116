r"""pe(n) consequences of the gl(n) multiplicity engine: typicality
equivalences, simplicity criteria, Kac characters, weakly-typical tilting
characters, the tilting = costandard detector, certified positivity edges
from socle/odd-reflection facts, and the Pieri difference character.

Everything here is certified only on the weakly-typical side; operations
that the theory does not determine outside that region raise
NotWeaklyTypical instead of guessing.

>>> from .weights import weight
>>> weakly_typical_tilting(weight(-1, 1, 5)) == nabla(weight(-1, 1, 5))
True
"""

from __future__ import annotations

from typing import Iterable, NamedTuple, Optional

from .characters import (
    LEVI_SIMPLE,
    NABLA,
    FormalChar,
    delta,
    nabla,
    nabla_sum_to_delta_sum,
)
from .glmult import (
    parabolic_verma_simple_mult,
    simple_in_verma_basis,
    verma_simple_mult,
)
from .linkage import strong_down_set, strong_up_set
from .weights import (
    Parabolic,
    Weight,
    borel,
    format_weight,
    is_dominant,
    is_g0_weakly_typical,
    is_p_dominant,
    is_p_weakly_typical,
    levi_blocks,
    negate,
    require_p_dominant,
    shift,
)
from .weyl import InvariantViolation, apply_perm, parabolic_longest

__all__ = [
    "NotWeaklyTypical",
    "OddReflectionFact",
    "prop41_equivalent",
    "kac_char",
    "super_verma_mult_wt",
    "kac_is_simple",
    "parabolic_verma_is_simple",
    "weakly_typical_tilting",
    "tilting_delta_mults_wt",
    "tilting_equals_nabla",
    "standard_fact_edges",
    "pieri_difference",
    "neg_w0p",
]


class NotWeaklyTypical(Exception):
    """The requested multiplicity/character is outside the weakly-typical
    region, where this engine does not certify an answer."""


def neg_w0p(lam: Weight, p: Parabolic) -> Weight:
    """-w_0^p(lam): reverse within Levi blocks, then negate."""
    return negate(apply_perm(parabolic_longest(p), lam))


def prop41_equivalent(lam: Weight, p: Optional[Parabolic] = None) -> bool:
    """Whether lam is p-weakly-typical, checking on the way that this
    agrees with -w_0^p(lam) being g0-weakly-typical (InvariantViolation
    otherwise)."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    left = is_p_weakly_typical(lam, p)
    right = is_g0_weakly_typical(neg_w0p(lam, p))
    if left != right:
        raise InvariantViolation(
            f"Prop. 4.1 fails at {format_weight(lam)} for p={p}: {left} != {right}"
        )
    return left


def kac_char(lam: Weight) -> FormalChar:
    """ch K_lam in the Delta(borel) basis: the Kac functor is exact on
    characters, so the expansion mirrors ch L^0_lam over Vermas.

    >>> from .weights import weight
    >>> from .characters import delta
    >>> kac_char(weight(1, 0)) == delta(weight(1, 0)) - delta(weight(0, 1))
    True
    """
    out = FormalChar()
    for (_, mu), c in simple_in_verma_basis(lam).terms.items():
        out = out + c * delta(mu)
    return out


def super_verma_mult_wt(mu: Weight, lam: Weight) -> int:
    """[Delta_mu : L_lam] for g0-weakly-typical lam, where it coincides
    with the even Verma multiplicity [M_mu : L^0_lam]."""
    if not is_g0_weakly_typical(lam):
        raise NotWeaklyTypical(
            f"[Delta:L] is not determined here for {format_weight(lam)}"
        )
    return verma_simple_mult(mu, lam)


def kac_is_simple(lam: Weight) -> bool:
    """K_lam is simple iff lam is g0-weakly-typical.

    >>> from .weights import weight
    >>> kac_is_simple(weight(1, -1, -5))
    True
    >>> kac_is_simple(weight(0, -1, -5))
    False
    """
    return is_g0_weakly_typical(lam)


def parabolic_verma_is_simple(lam: Weight, p: Optional[Parabolic] = None) -> bool:
    """Delta^p_lam is simple iff lam is g0-weakly-typical and the even
    parabolic Verma M^p_lam is simple."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    if not is_g0_weakly_typical(lam):
        return False
    return all(
        parabolic_verma_simple_mult(lam, mu, p) == 0
        for mu in strong_down_set(lam)
        if mu != lam
    )


def weakly_typical_tilting(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """The costandard-flag character of the indecomposable tilting T^p_lam
    for p-weakly-typical lam in Sigma_p^+:

        ch T^p_lam = sum_mu [M^p_{-w_0^p mu} : L^0_{-w_0^p lam}] ch Nabla^p_mu.

    The support is enumerated as mu = -w_0^p(nu) over the strong up-set of
    -w_0^p(lam), keeping mu in Sigma_p^+."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    if not is_p_weakly_typical(lam, p):
        raise NotWeaklyTypical(
            f"{format_weight(lam)} is not p-weakly-typical for p={p}"
        )
    eta = neg_w0p(lam, p)
    chi = FormalChar()
    for nu in strong_up_set(eta):
        if not is_p_dominant(nu, p):
            continue
        mu = neg_w0p(nu, p)
        if not is_p_dominant(mu, p):
            continue
        c = parabolic_verma_simple_mult(nu, eta, p)
        if c:
            chi = chi + c * nabla(mu, p)
    if chi.coeff(NABLA, lam, p) != 1:
        raise InvariantViolation(
            f"T^p_{format_weight(lam)} (p={p}) has coefficient "
            f"{chi.coeff(NABLA, lam, p)} at its highest weight: {chi!r}"
        )
    return chi


def tilting_delta_mults_wt(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """Standard-flag multiplicities of T^p_lam (weakly-typical route):
    expand the costandard-flag character and recollect in the Delta^p basis."""
    p = p or borel(len(lam))
    return nabla_sum_to_delta_sum(weakly_typical_tilting(lam, p))


def tilting_equals_nabla(lam: Weight, p: Optional[Parabolic] = None) -> bool:
    """T^p_lam = Nabla^p_lam iff lam is p-weakly-typical and -w_0^p(lam)
    is dominant (so the even parabolic Verma there is projective).

    >>> from .weights import weight
    >>> tilting_equals_nabla(weight(-1, 1, 5))
    True
    >>> tilting_equals_nabla(weight(-1, 1, 0))
    False
    """
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    if not is_p_weakly_typical(lam, p):
        return False
    return is_dominant(neg_w0p(lam, p))


class OddReflectionFact(NamedTuple):
    """A transcribed simple-socle identification: L_eta = soc K_kac, with
    an optional highest weight br of the same simple in the odd-reflected
    Borel (inert metadata unless kac is absent, in which case kac is
    recovered as br + 2*omega).  These facts are data, never computed."""

    tag: str
    eta: Weight
    kac: Optional[Weight] = None
    br: Optional[Weight] = None

    @property
    def kind(self) -> str:
        return "socle-of-kac" if self.kac is not None else "br-highest-weight"

    def kac_weight(self) -> Weight:
        if self.kac is not None:
            return self.kac
        if self.br is not None:
            return shift(self.br, 2)
        raise ValueError(f"fact {self.tag} carries no Kac weight")


def standard_fact_edges(
    facts: Iterable[OddReflectionFact],
) -> set[tuple[Weight, Weight]]:
    """Certified positivity edges: each fact L_eta = soc K_mu yields, for
    every nu in the strong up-set of mu, the claim (T_{-eta} : Nabla_{-nu})
    > 0, since [Delta_nu : K_mu] > 0 there (exact for n <= 3, where all
    even Verma multiplicities are 0 or 1)."""
    claims: set[tuple[Weight, Weight]] = set()
    for fact in facts:
        mu = fact.kac_weight()
        for nu in strong_up_set(mu):
            claims.add((negate(fact.eta), negate(nu)))
    return claims


def pieri_difference(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """The signed Levi-simple character
        sum_{lam - 2e_i in Sigma_p^+} L^l_{lam - 2e_i}
      - sum_{alpha = e_i - e_j in Phi^+(l), <lam, alpha> = 1,
             lam - e_i - e_j in Sigma_p^+} L^l_{lam - e_i - e_j}.

    >>> from .weights import weight
    >>> chi = pieri_difference(weight(1, 0, 5), (2, 1))
    >>> chi.coeff("levi_simple", weight(0, -1, 5), (2, 1))
    -1
    """
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    n = len(lam)
    out = FormalChar()
    for i in range(n):
        mu = tuple(c - 2 if k == i else c for k, c in enumerate(lam))
        if is_p_dominant(mu, p):
            out = out + FormalChar.single(LEVI_SIMPLE, mu, p)
    for block in levi_blocks(p):
        for a_idx, i in enumerate(block):
            for j in block[a_idx + 1 :]:
                if lam[i] - lam[j] == 1:
                    mu = tuple(
                        c - 1 if k in (i, j) else c for k, c in enumerate(lam)
                    )
                    if is_p_dominant(mu, p):
                        out = out - FormalChar.single(LEVI_SIMPLE, mu, p)
    return out


if __name__ == "__main__":
    import doctest

    doctest.testmod()
