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
  functor (each image peeled in place into tilting characters from its
  first maximal top-degree weight, within |supp| steps), and the claimed
  standard-flag bound (T : standard) <= 1, which exact computation refutes
  (see :func:`delta_flag_bound_report`); each row instance is built once
  per fixture file, and each head looked up once per class mod omega.
"""

from __future__ import annotations

from itertools import product
from typing import Iterator, NamedTuple

from ..characters import (
    NABLA,
    FormalChar,
    _theta_images,
    nabla_sum_to_delta_sum,
    shift_by_omega,
)
from ..linkage import _lowered, strong_down_set, strongly_linked
from ..tilting import weakly_typical_tilting
from ..weights import (
    Coord,
    Weight,
    borel,
    format_weight,
    is_p_weakly_typical,
    negate,
    shift,
    unscale,
)
from .tables import (
    NONINT_SAMPLES,
    NoTableEntry,
    TableIntegrityError,
    TiltingFamily,
    _fixture,
    lookup_tilting_pe3,
)

_B3 = borel(3)


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


_ROOT_PAIRS = ((0, 1), (0, 2), (1, 2))  # e_i + e_j, 0-based i < j, at rank 3


def _statement_failures(lam: Weight, chi: FormalChar) -> Iterator[tuple[int, str]]:
    """Yield (statement, detail) for each failing minimality claim at lam."""

    def coeff(mu: Weight) -> int:
        return chi.coeff(NABLA, mu, _B3)

    for mu in strong_down_set(lam):
        if coeff(mu) <= 0:
            yield 1, f"lambda={format_weight(lam)} mu={format_weight(mu)}"

    minus_one_pairs = [(i, j) for (i, j) in _ROOT_PAIRS if lam[i] - lam[j] == -1]
    for i, j in minus_one_pairs:
        base = _lowered(lam, i, j)
        if coeff(base) <= 0:
            yield 2, f"lambda={format_weight(lam)} mu={format_weight(base)}"
        for nu in strong_down_set(base):
            if coeff(nu) <= 0:
                yield 3, f"lambda={format_weight(lam)} mu={format_weight(nu)}"

    # Simple-root pairings (alpha_1, alpha_2).
    a1, a2 = lam[0] - lam[1], lam[1] - lam[2]
    below = _lowered(lam, 1, 2)
    if a2 == -1 and below[0] - below[1] == -1:
        mu = _lowered(below, 0, 1)
        if coeff(mu) <= 0:
            yield 4, f"lambda={format_weight(lam)} mu={format_weight(mu)}"
    if a1 == -1 and a2 == -1:
        for mu in (_lowered(lam, 0, 0, 1, 2), _lowered(lam, 0, 1, 2, 2)):
            if coeff(mu) <= 0:
                yield 5, f"lambda={format_weight(lam)} mu={format_weight(mu)}"
        mu = shift(lam, -2)
        if coeff(mu) != 1:
            yield 6, (
                f"lambda={format_weight(lam)} mu={format_weight(mu)} "
                f"coeff={coeff(mu)}"
            )


def _theorem_D_sources(param_bound: int) -> Iterator[tuple[Weight, FormalChar]]:
    fixture = _fixture()
    for fam in fixture.families.values():
        if fam.parabolic != _B3:
            continue  # the minimality statements concern the final Borel
        for params in _instances(fam, param_bound):
            yield fam.highest_weight(params), fixture.instance(fam, params)
    for lam in product(range(-2, 3), repeat=3):
        if is_p_weakly_typical(lam, _B3):
            yield lam, weakly_typical_tilting(lam, _B3)


def verify_theorem_D(param_bound: int = 6) -> list[CheckReport]:
    """Check the six minimality statements on every in-scope character.

    Sources: all stored final-Borel families instantiated with integer
    parameters clipped to ``|v| <= param_bound`` (plus the stock
    non-integral samples), and every weakly typical integral weight in
    ``{-2..2}^3`` via the character engine.
    """
    if param_bound < 4:
        raise ValueError("param_bound must be at least 4 to cover every pattern")
    failures: dict[int, list[str]] = {k: [] for k in range(1, 7)}
    checked = 0
    for lam, chi in _theorem_D_sources(param_bound):
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
    if bound < 0:
        raise ValueError("bound must be non-negative")
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


def _head(tops: list) -> int:
    """The position of the first of tops, the top-degree weights in row
    order, with no other top nu such that -nu is strongly linked to -mu; the
    last top needs no test once the others are out.  Each top is negated
    once, so a candidate -mu stays one object and `strongly_linked` ranks it
    once."""
    negs = [negate(mu) for mu in tops]
    return next(
        (i for i, lam in enumerate(negs[:-1])
         if not any(nu is not lam and strongly_linked(nu, lam) for nu in negs)),
        len(tops) - 1,
    )


def decompose_into_tiltings(chi: FormalChar, p, memo: dict) -> dict[Weight, int]:
    """Write a dual-Verma-basis character as a non-negative integer
    combination of tilting characters, greedily from the top: each step
    subtracts c * T_head (see :func:`_head`) in place from one copy of the
    rows of chi, T_head's rows rescaled to chi's scale d; only the
    top-degree candidates of a step are unscaled.

    Raises ValueError if chi is not in the Nabla(p) basis, if a step meets
    a non-positive head or leaves a negative coefficient (read on the
    touched rows, and once on the input); propagates NoTableEntry when a
    head falls outside the stored patterns.  A tilting character has
    positive coefficients and 1 at its head, so a step that leaves no
    negative coefficient removes the head and adds no weight: the loop ends
    within |supp chi| steps.  ``memo`` maps (weight, parabolic) to the
    tilting characters already found, so a caller that decomposes many
    images can share them; a new head is looked up once per class mod omega
    (see :func:`_class_tilting`), and a class with no tilting character is
    stored as None."""
    p = tuple(p)
    if not chi.is_zero() and (chi.kind, chi.parabolic) != (NABLA, p):
        raise ValueError(f"expected a nabla{p} character, got {chi.kind}{chi.parabolic}")
    d, remainder = chi.d, dict(chi.rows)
    negative = any(c < 0 for c in remainder.values())
    parts: dict[Weight, int] = {}
    while remainder:
        top = max(map(sum, remainder))
        tops = [x for x in remainder if sum(x) == top]
        weights = [mu for mu, _ in unscale(dict.fromkeys(tops), d)]
        i = _head(weights)
        head, x = weights[i], tops[i]
        c = remainder[x]
        if c <= 0:
            raise ValueError(f"head {format_weight(head)} has non-positive coefficient {c}")
        tilting = memo.get((head, p))
        if tilting is None:
            tilting = memo[head, p] = _class_tilting(head, p, memo)
        for y, t in tilting._at(d).items():  # T_head's weights share the head's denominators
            v = remainder.get(y, 0) - c * t
            if v:
                remainder[y] = v
                negative = negative or v < 0
            else:
                del remainder[y]
        if negative:
            raise ValueError(f"subtracting {c} x T_{format_weight(head)} went negative")
        parts[head] = parts.get(head, 0) + c
    return parts


def _class_tilting(head: Weight, p: tuple, memo: dict) -> FormalChar:
    """T_head as the memo entry of its class mod omega, the weight
    head - head[0]*omega (looked up and stored when missing), shifted back:
    tensoring with the one-dimensional module shifts a whole tilting
    character.  A class with none is stored as None, and the lookup of head
    itself raises the error, so it names the head."""
    k = head[0]
    key = shift(head, -k), p
    if key not in memo:
        try:
            memo[key] = lookup_tilting_pe3(*key)
        except (NoTableEntry, ValueError):
            memo[key] = None
    tilting = memo[key]
    if tilting is None:
        return lookup_tilting_pe3(head, p)  # raises the error naming head
    return shift_by_omega(tilting, k)


def _closure_alphabet(chi: FormalChar) -> list[Coord]:
    coords = {c for mu in chi.support() for c in mu}
    return sorted(coords | {c - 2 for c in coords})


def _tag(fam: TiltingFamily, params: dict) -> str:
    if not params:
        return fam.id
    return fam.id + "@" + ",".join(f"{k}={v}" for k, v in sorted(params.items()))


def _instantiate_all(bound: int) -> list[tuple]:
    """(family, params, kept character or the ValueError it raised) per row
    instance."""
    fixture = _fixture()
    rows = []
    for fam in fixture.families.values():
        for params in _instances(fam, bound):
            try:
                rows.append((fam, params, fixture.instance(fam, params)))
            except ValueError as exc:
                rows.append((fam, params, exc))
    return rows


def _check_family(fam: TiltingFamily, rows: list, memo: dict) -> CheckReport:
    failures: list[str] = []
    skipped: list[str] = []
    p = fam.parabolic
    rows = [row for row in rows if row[0] is fam]
    for _, params, chi in rows:
        tag = _tag(fam, params)
        if isinstance(chi, ValueError):
            failures.append(f"{tag}: instantiate: {chi}")
            continue
        hw = fam.highest_weight(params)
        engine = is_p_weakly_typical(hw, p) and weakly_typical_tilting(hw, p)
        if engine and chi != memo.setdefault((hw, p), engine):  # = lookup_tilting_pe3(hw, p)
            failures.append(
                f"{tag}: stored row disagrees with the engine at {format_weight(hw)}"
            )
        alphabet = _closure_alphabet(chi)
        for a, image in zip(alphabet, _theta_images(alphabet, chi)):
            if image.is_zero():
                continue
            try:
                decompose_into_tiltings(image, p, memo)
            except (NoTableEntry, ValueError) as exc:
                # The proper-parabolic tables cover only the patterns the
                # source rows exhibit; images outside them are reported.
                miss = isinstance(exc, NoTableEntry) and p != _B3
                (skipped if miss else failures).append(f"{tag}: theta_{a}: {exc}")
    lines = tuple(failures) + tuple(f"skipped: {s}" for s in skipped)
    return CheckReport(f"table-{fam.id}", not failures, len(rows), lines)


def _flag_report(rows: list) -> CheckReport:
    failures: list[str] = []
    for fam, params, chi in rows:
        if isinstance(chi, ValueError):
            failures.append(f"{_tag(fam, params)}: instantiate: {chi}")
            continue
        dmults = nabla_sum_to_delta_sum(chi)
        bad = sorted((mu, c) for mu, c in dmults.items() if c not in (0, 1))
        for mu, c in bad[:2]:
            hw = fam.highest_weight(params)
            failures.append(
                f"{_tag(fam, params)}: (T_{format_weight(hw)} : "
                f"standard_{format_weight(mu)}) = {c}"
            )
    return CheckReport("delta-flag-bound", not failures, len(rows), tuple(failures))


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
    return _flag_report(_instantiate_all(param_bound))


def verify_tables(param_bound: int = 4) -> list[CheckReport]:
    """Internal consistency of every stored family, the coincidence of the
    two stored rows sharing the highest weight (0,1,1), and the claimed
    standard-flag multiplicity bound, which fails on 19 of the 65
    instantiations at ``param_bound=4`` (see :func:`delta_flag_bound_report`)."""
    if param_bound < 4:
        raise ValueError("param_bound must be at least 4 to cover every pattern")
    fixture = _fixture()
    rows = _instantiate_all(param_bound)
    memo: dict = {}  # tilting characters by (weight, parabolic), for this call only
    reports = [_check_family(fam, rows, memo) for fam in fixture.families.values()]
    try:
        same = fixture.instance(fixture.row("5.2"), {}) == fixture.instance(fixture.row("5.7"), {})
        detail = "rows 5.2 and 5.7 disagree"
    except TableIntegrityError as exc:
        same, detail = False, str(exc)
    reports.append(CheckReport("rows-5.2==5.7", same, 1, () if same else (detail,)))
    reports.append(_flag_report(rows))
    return reports
