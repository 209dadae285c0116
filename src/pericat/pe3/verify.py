"""Batch verification: minimality statements and table self-consistency.

Three entry points, each returning :class:`CheckReport` data that the CLI
renders:

* :func:`verify_theorem_D` — the six minimality statements for rank-3
  tilting characters over all stored-table instantiations (parameters
  bounded) plus a grid of weakly typical weights answered by the engine;
* :func:`pe2_property_check` — the strong-linkage lower bound at rank 2,
  on the weakly typical part of an integral box;
* :func:`verify_tables` — internal consistency of every stored family:
  single block, agreement with the engine on weakly typical highest
  weights, closure of the table set under every relevant translation
  functor, and the claimed standard-flag bound (T : standard) <= 1, which
  exact computation refutes (see :func:`delta_flag_bound_report`).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Iterator, NamedTuple, Optional

from ..characters import NABLA, DELTA, FormalChar, nabla_sum_to_delta_sum, theta_char
from ..linkage import block_label, strong_down_set, strongly_linked
from ..tilting import weakly_typical_tilting
from ..weights import (
    Coord,
    Weight,
    borel,
    degree,
    format_weight,
    is_p_weakly_typical,
    negate,
    omega,
    sub,
    weight,
)
from ..weyl import all_perms, apply_perm
from .tables import NoTableEntry, TiltingFamily, load_families, lookup_tilting_pe3

_B3 = borel(3)
NONINT_SAMPLES = (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 2))


class CheckReport(NamedTuple):
    name: str
    ok: bool
    checked: int
    failures: tuple[str, ...]


def _int_values(spec, bound: int) -> list[int]:
    lo = -bound if spec.min is None else max(spec.min, -bound)
    hi = bound if spec.max is None else min(spec.max, bound)
    return list(range(lo, hi + 1))


def _instances(fam: TiltingFamily, bound: int) -> Iterator[dict[str, Coord]]:
    pools = []
    for name, spec in fam.params:
        values = _int_values(spec, bound) if spec.kind == "int" else list(NONINT_SAMPLES)
        pools.append([(name, v) for v in values])
    for combo in product(*pools):
        yield dict(combo)


def _conj(i: int, j: int) -> Weight:
    """e_i + e_j for 1-based i < j at rank 3."""
    return weight(*(1 if k in (i - 1, j - 1) else 0 for k in range(3)))


_ROOT_PAIRS = ((1, 2), (1, 3), (2, 3))


def _statement_failures(lam: Weight, chi: FormalChar) -> Iterator[tuple[int, str]]:
    """Yield (statement, detail) for each failing minimality claim at lam."""

    def coeff(mu: Weight) -> int:
        return chi.coeff(NABLA, mu, _B3)

    for mu in strong_down_set(lam):
        if coeff(mu) <= 0:
            yield 1, f"lambda={format_weight(lam)} mu={format_weight(mu)}"

    minus_one_pairs = [(i, j) for (i, j) in _ROOT_PAIRS if lam[i - 1] - lam[j - 1] == -1]
    for i, j in minus_one_pairs:
        base = sub(lam, _conj(i, j))
        if coeff(base) <= 0:
            yield 2, f"lambda={format_weight(lam)} mu={format_weight(base)}"
        for w in all_perms(3):
            nu = apply_perm(w, base)
            if strongly_linked(nu, base) and coeff(nu) <= 0:
                yield 3, f"lambda={format_weight(lam)} mu={format_weight(nu)}"

    # Simple-root pairings (alpha_1, alpha_2).
    a1, a2 = lam[0] - lam[1], lam[1] - lam[2]
    below = sub(lam, _conj(2, 3))
    if a2 == -1 and below[0] - below[1] == -1:
        mu = sub(below, _conj(1, 2))
        if coeff(mu) <= 0:
            yield 4, f"lambda={format_weight(lam)} mu={format_weight(mu)}"
    if a1 == -1 and a2 == -1:
        for first in (_conj(1, 2), _conj(2, 3)):
            mu = sub(sub(lam, first), _conj(1, 3))
            if coeff(mu) <= 0:
                yield 5, f"lambda={format_weight(lam)} mu={format_weight(mu)}"
        mu = sub(lam, tuple(2 * c for c in omega(3)))
        if coeff(mu) != 1:
            yield 6, (
                f"lambda={format_weight(lam)} mu={format_weight(mu)} "
                f"coeff={coeff(mu)}"
            )


def _theorem_D_sources(param_bound: int, grid_bound: int) -> Iterator[tuple[Weight, FormalChar]]:
    for fam in load_families().values():
        if fam.parabolic != _B3:
            continue  # the minimality statements concern the final Borel
        for params in _instances(fam, param_bound):
            yield fam.highest_weight(params), fam.instantiate(params)
    coords = range(-grid_bound, grid_bound + 1)
    for lam in product(coords, repeat=3):
        if is_p_weakly_typical(lam, _B3):
            yield lam, weakly_typical_tilting(lam, _B3)


def verify_theorem_D(param_bound: int = 6, grid_bound: int = 2) -> list[CheckReport]:
    """Check the six minimality statements on every in-scope character.

    Sources: all stored final-Borel families instantiated with integer
    parameters clipped to ``|v| <= param_bound`` (plus the stock
    non-integral samples), and every weakly typical integral weight in
    ``{-grid_bound..grid_bound}^3`` via the character engine.
    """
    if param_bound < 4:
        raise ValueError("param_bound must be at least 4 to cover every pattern")
    failures: dict[int, list[str]] = {k: [] for k in range(1, 7)}
    checked = 0
    for lam, chi in _theorem_D_sources(param_bound, grid_bound):
        checked += 1
        for stmt, detail in _statement_failures(lam, chi):
            failures[stmt].append(detail)
    return [
        CheckReport(
            name=f"minimality-{stmt}",
            ok=not failures[stmt],
            checked=checked,
            failures=tuple(failures[stmt]),
        )
        for stmt in range(1, 7)
    ]


def pe2_property_check(bound: int = 3) -> CheckReport:
    """Rank 2: on every weakly typical integral weight in the box, each
    weight strongly linked below the highest weight carries a positive
    dual-Verma multiplicity.  Non-weakly-typical weights are skipped (the
    engine has no claim there)."""
    b2 = borel(2)
    failures: list[str] = []
    checked = 0
    coords = range(-bound, bound + 1)
    for lam in product(coords, repeat=2):
        if not is_p_weakly_typical(lam, b2):
            continue
        checked += 1
        chi = weakly_typical_tilting(lam, b2)
        for mu in strong_down_set(lam):
            if chi.coeff(NABLA, mu, b2) <= 0:
                failures.append(f"lambda={format_weight(lam)} mu={format_weight(mu)}")
    return CheckReport("rank2-linkage-bound", not failures, checked, tuple(failures))


def _head_candidates(chi: FormalChar) -> list[Weight]:
    """Support weights of maximal degree that are not strictly below
    another maximal-degree weight in the strong order on negatives."""
    degrees = {mu: degree(mu) for mu in chi.support()}
    top = max(degrees.values())
    tops = [mu for mu, d in degrees.items() if d == top]
    return [
        mu
        for mu in tops
        if not any(
            nu != mu and strongly_linked(negate(nu), negate(mu)) for nu in tops
        )
    ]


def decompose_into_tiltings(chi: FormalChar, p, max_steps: int = 64) -> dict[Weight, int]:
    """Write a dual-Verma-basis character as a non-negative integer
    combination of tilting characters, greedily from the top.

    Raises ValueError if a step produces a negative coefficient or the
    remainder fails to vanish; propagates NoTableEntry when a head falls
    outside the stored patterns.
    """
    parts: dict[Weight, int] = {}
    remainder = chi
    for _ in range(max_steps):
        if remainder.is_zero():
            return parts
        head = _head_candidates(remainder)[0]
        c = remainder.coeff(NABLA, head, p)
        if c <= 0:
            raise ValueError(
                f"head {format_weight(head)} has non-positive coefficient {c}"
            )
        remainder = remainder - c * lookup_tilting_pe3(head, p)
        if any(k < 0 for k in remainder.terms.values()):
            raise ValueError(
                f"subtracting {c} x T_{format_weight(head)} went negative"
            )
        parts[head] = parts.get(head, 0) + c
    raise ValueError("decomposition did not terminate")


def _closure_alphabet(chi: FormalChar) -> list[Coord]:
    values: set[Coord] = set()
    for mu in chi.support():
        for c in mu:
            values.add(c)
            values.add(c - 2)
    return sorted(values)


def _tag(fam: TiltingFamily, params: dict) -> str:
    if not params:
        return fam.id
    return fam.id + "@" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def _check_family(fam: TiltingFamily, param_bound: int) -> CheckReport:
    failures: list[str] = []
    skipped: list[str] = []
    checked = 0
    p = fam.parabolic
    for params in _instances(fam, param_bound):
        checked += 1
        tag = _tag(fam, params)
        try:
            chi = fam.instantiate(params)
        except (AssertionError, ValueError) as exc:
            failures.append(f"{tag}: instantiate: {exc}")
            continue
        labels = {block_label(mu) for mu in chi.support()}
        if len(labels) != 1:
            failures.append(f"{tag}: support spans {len(labels)} blocks")
        hw = fam.highest_weight(params)
        if is_p_weakly_typical(hw, p) and chi != weakly_typical_tilting(hw, p):
            failures.append(
                f"{tag}: stored row disagrees with the engine at {format_weight(hw)}"
            )
        for a in _closure_alphabet(chi):
            image = theta_char(a, chi)
            if image.is_zero():
                continue
            try:
                decompose_into_tiltings(image, p)
            except NoTableEntry as exc:
                if p == _B3:
                    failures.append(f"{tag}: theta_{a}: {exc}")
                else:
                    # The proper-parabolic tables cover only the patterns the
                    # source rows exhibit; images outside them are reported.
                    skipped.append(f"{tag}: theta_{a}: {exc}")
            except ValueError as exc:
                failures.append(f"{tag}: theta_{a}: {exc}")
    name = f"table-{fam.id}"
    if skipped and not failures:
        return CheckReport(name, True, checked, tuple(f"skipped: {s}" for s in skipped))
    return CheckReport(name, not failures, checked, tuple(failures))


def delta_flag_bound_report(param_bound: int = 4) -> CheckReport:
    """Check the claimed bound (T : standard) <= 1 on every stored row.

    The bound is FALSE: rewriting a stored costandard-basis row into the
    standard basis (the kappa in {0,2}^n expansion) adds up the
    contributions of every costandard term that reaches a common standard
    weight, and all of them are positive.  Each failure is a recorded
    example, at most two per instantiation with the smallest weights first,
    so the failure count is not the number of offending weights.  At
    ``param_bound=4`` the 36 recorded examples come from 19 of the 65
    instantiations, which together have 111 (instantiation, weight) pairs
    above 1; the highest multiplicity is 3, at four pairs: standard_-2,-1,-2
    and standard_-2,-2,-1 in T_0,1,-2, standard_-1,0,0 and standard_0,-1,0
    in T_2,0,1.  Callers treat this report as the machine record of the
    discrepancy.
    """
    failures: list[str] = []
    checked = 0
    for fam in load_families().values():
        for params in _instances(fam, param_bound):
            checked += 1
            chi = fam.instantiate(params)
            dmults = nabla_sum_to_delta_sum(chi)
            bad = sorted(
                (mu, c) for (_, mu), c in dmults.terms.items() if c not in (0, 1)
            )
            for mu, c in bad[:2]:
                hw = fam.highest_weight(params)
                failures.append(
                    f"{_tag(fam, params)}: (T_{format_weight(hw)} : "
                    f"standard_{format_weight(mu)}) = {c}"
                )
    return CheckReport("delta-flag-bound", not failures, checked, tuple(failures))


def verify_tables(param_bound: int = 4) -> list[CheckReport]:
    """Internal consistency of every stored family, the coincidence of the
    two stored rows sharing the highest weight (0,1,1), and the claimed
    standard-flag multiplicity bound, which fails on 19 of the 65
    instantiations at ``param_bound=4`` (see :func:`delta_flag_bound_report`)."""
    if param_bound < 4:
        raise ValueError("param_bound must be at least 4 to cover every pattern")
    families = load_families()
    reports = [_check_family(fam, param_bound) for fam in families.values()]
    same = families["5.2"].instantiate() == families["5.7"].instantiate()
    reports.append(
        CheckReport(
            "rows-5.2==5.7",
            same,
            1,
            () if same else ("rows 5.2 and 5.7 disagree",),
        )
    )
    reports.append(delta_flag_bound_report(param_bound))
    return reports
