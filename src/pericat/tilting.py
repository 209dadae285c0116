r"""pe(n) tilting characters from the gl(n) multiplicity engine: the
weakly-typical tilting characters and the tilting = costandard detector.

Everything here is certified only on the weakly-typical side; operations
that the theory does not determine outside that region raise
NotWeaklyTypical instead of guessing.

The tilting engine ranks -w_0^p(lam) once and then works on rank tuples:
the strong up-set walk of `linkage`, the p-dominance test and the Levi sums
of `glmult`; only the members it keeps are mapped back to weights.

>>> from .characters import nabla
>>> from .weights import weight
>>> weakly_typical_tilting(weight(-1, 1, 5)) == nabla(weight(-1, 1, 5))
True
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

from .characters import NABLA, FormalChar, _char
from .glmult import _class_blocks, _levi_sum
from .linkage import _ranks, _walk
from .weights import (
    Parabolic,
    Weight,
    _falls,
    _levi_pairs,
    borel,
    format_weight,
    is_dominant,
    is_p_weakly_typical,
    negate,
    require_p_dominant,
    scale,
)
from .weyl import InvariantViolation, apply_perm, parabolic_longest

__all__ = [
    "NotWeaklyTypical",
    "weakly_typical_tilting",
    "tilting_equals_nabla",
    "neg_w0p",
]


class NotWeaklyTypical(Exception):
    """The requested multiplicity/character is outside the weakly-typical
    region, where this engine does not certify an answer."""


def neg_w0p(lam: Weight, p: Parabolic) -> Weight:
    """-w_0^p(lam): reverse within Levi blocks, then negate."""
    return negate(apply_perm(parabolic_longest(p), lam))


def weakly_typical_tilting(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """The costandard-flag character of the indecomposable tilting T^p_lam
    for p-weakly-typical lam in Sigma_p^+:

        ch T^p_lam = sum_mu [M^p_{-w_0^p mu} : L^0_{-w_0^p lam}] ch Nabla^p_mu.

    The support is mu = -w_0^p(nu) over the p-dominant nu of the strong
    up-set of eta = -w_0^p(lam).  eta is ranked once; the walk, the
    p-dominance test and each multiplicity then run on rank tuples, and
    each kept nu is mapped back once, to a row of the answer."""
    p = p or borel(len(lam))
    require_p_dominant(lam, p)
    if not is_p_weakly_typical(lam, p):
        raise NotWeaklyTypical(
            f"{format_weight(lam)} is not p-weakly-typical for p={p}"
        )
    return _weakly_typical_tilting(lam, p)


def _weakly_typical_tilting(lam: Weight, p: Parabolic) -> FormalChar:  # lam guarded by caller
    back = parabolic_longest(p)  # an involution: mu_k = -nu_{w_0^p(k)}
    eta = tuple([-lam[k] for k in back])
    r, _, keys = _ranks(eta, eta)
    dense, blocks = _class_blocks(r, keys)
    # eta is p-dominant, so each Levi block lies in one class, in eta and in
    # every nu: nu is p-dominant when its ranks fall along each Levi pair,
    # and then so is -w_0^p(nu)
    levi = _levi_pairs(p, len(lam))
    # every mu has lam's integrality classes, so the rows take lam's scale d
    d, (y,) = scale([lam])
    neg = {k: y[i] for k, i in zip(r, back)}  # rank -> -(its coordinate of eta), scaled
    rows = {}  # -w_0^p is a bijection, so each mu arrives once
    for x in _walk(r, keys, -1):
        if _falls(x, levi):
            c = _levi_sum(x, r, dense, blocks, p)
            if c < 0:
                nu = [Fraction(-neg[k], d) for k in x]
                raise InvariantViolation(
                    f"[M^p_{format_weight(nu)} : L_{format_weight(eta)}] = {c} < 0 for p={p}"
                )
            if c:
                rows[tuple([neg[x[k]] for k in back])] = c
    chi = _char(NABLA, p, d, rows)  # in Sigma_p^+: each nu's ranks fall
    if rows.get(y) != 1:
        raise InvariantViolation(
            f"T^p_{format_weight(lam)} (p={p}) has coefficient "
            f"{chi.coeff(NABLA, lam, p)} at its highest weight: {chi!r}"
        )
    return chi


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


if __name__ == "__main__":
    import doctest

    doctest.testmod()
