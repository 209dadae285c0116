"""Versioned tilting-character tables for rank 3 with pattern lookup.

The tables are shipped as a JSON data file (``families.json``).  Each record
is a *family*: a parametrised highest-weight pattern together with the full
list of dual-Verma constituents, all with coefficient one.  Rows carry opaque
ids such as ``"5.4"`` or ``"5.8-1"``; these ids are part of the external
fixture interface and are echoed verbatim in verification reports.

``lookup_tilting_pe3`` resolves an arbitrary rank-3 highest weight: weakly
typical weights are answered by the character engine, everything else is
matched against the stored families after factoring out a multiple of
``omega = (1,1,1)`` (tensoring with the one-dimensional module shifts every
weight in the character by the same multiple of ``omega``).
"""

from __future__ import annotations

import json
import logging
import os
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

from ..characters import FormalChar, char_sum, nabla, shift_by_omega
from ..linkage import same_block
from ..tilting import weakly_typical_tilting
from ..weights import (
    Parabolic,
    Weight,
    borel,
    format_weight,
    is_integer,
    is_p_dominant,
    is_p_weakly_typical,
    require_p_dominant,
    weight,
)

log = logging.getLogger(__name__)

Numeric = Union[int, Fraction, str]


class NoTableEntry(Exception):
    """No stored family covers the requested weight/parabolic pair."""


class ParamSpec(NamedTuple):
    """Domain of one family parameter.

    ``kind`` is ``"int"`` (integer, optionally bounded) or ``"nonint"``
    (any rational with denominator > 1).
    """

    kind: str
    min: Optional[int] = None
    max: Optional[int] = None

    def admits(self, value: Fraction) -> bool:
        value = Fraction(value)
        if self.kind == "int":
            if value.denominator != 1:
                return False
            if self.min is not None and value < self.min:
                return False
            if self.max is not None and value > self.max:
                return False
            return True
        if self.kind == "nonint":
            return value.denominator > 1
        raise ValueError(f"unknown parameter kind {self.kind!r}")


def _eval_coord(token: str, values: Mapping[str, Fraction]) -> Fraction:
    token = token.strip()
    if token in values:
        return values[token]
    return Fraction(token)


class TiltingFamily(NamedTuple):
    """One parametrised table row: highest weight pattern plus constituents."""

    id: str
    parabolic: Parabolic
    params: tuple[tuple[str, ParamSpec], ...]
    hw: tuple[str, ...]
    terms: tuple[tuple[tuple[str, ...], int], ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def _resolve(self, values: Optional[Mapping[str, Numeric]]) -> dict[str, Fraction]:
        given = {k: Fraction(v) for k, v in (values or {}).items()}
        if set(given) != set(self.param_names):
            raise ValueError(
                f"family {self.id} expects parameters {self.param_names}, "
                f"got {tuple(sorted(given))}"
            )
        for name, spec in self.params:
            if not spec.admits(given[name]):
                raise ValueError(
                    f"family {self.id}: parameter {name}={given[name]} "
                    f"violates {spec}"
                )
        return given

    def admissible(self, values: Optional[Mapping[str, Numeric]] = None) -> bool:
        try:
            self._resolve(values)
        except ValueError:
            return False
        return True

    def highest_weight(self, values: Optional[Mapping[str, Numeric]] = None) -> Weight:
        resolved = self._resolve(values)
        return weight(*(_eval_coord(tok, resolved) for tok in self.hw))

    def instantiate(self, values: Optional[Mapping[str, Numeric]] = None) -> FormalChar:
        resolved = self._resolve(values)
        hw = weight(*(_eval_coord(tok, resolved) for tok in self.hw))
        chi = char_sum(
            coeff * nabla(weight(*(_eval_coord(tok, resolved) for tok in pattern)), self.parabolic)
            for pattern, coeff in self.terms
        )
        assert chi.coeff("nabla", hw, self.parabolic) == 1, (
            f"family {self.id}: highest weight {format_weight(hw)} must appear "
            "with coefficient 1"
        )
        for (_, mu), coeff in chi.terms.items():
            assert coeff == 1, (
                f"family {self.id}: coefficient {coeff} at {format_weight(mu)}; "
                "all stored coefficients are 1"
            )
            assert same_block(hw, mu), (
                f"family {self.id}: term {format_weight(mu)} is not linked to "
                f"the highest weight {format_weight(hw)}"
            )
            assert is_p_dominant(mu, self.parabolic), (
                f"family {self.id}: term {format_weight(mu)} lies outside "
                f"Sigma_p^+ for p={self.parabolic}"
            )
        return chi


def instantiate(
    family: TiltingFamily, params: Optional[Mapping[str, Numeric]] = None
) -> FormalChar:
    """Concrete character of a table row at the given parameter values."""
    return family.instantiate(params)


def _parse_family(record: dict) -> TiltingFamily:
    params = tuple(
        (
            name,
            ParamSpec(
                kind=spec["kind"],
                min=spec.get("min"),
                max=spec.get("max"),
            ),
        )
        for name, spec in record.get("params", {}).items()
    )
    return TiltingFamily(
        id=record["id"],
        parabolic=tuple(record["parabolic"]),
        params=params,
        hw=tuple(record["hw"].split(",")),
        terms=tuple(
            (tuple(pattern.split(",")), int(coeff))
            for pattern, coeff in record["terms"]
        ),
    )


_CACHE: dict[str, dict[str, TiltingFamily]] = {}


def _fixture_key() -> str:
    env = os.environ.get("PERICAT_FIXTURES")
    if env:
        path = Path(env)
        if path.is_dir():
            path = path / "families.json"
        return str(path)
    return "<packaged>"


def _read_fixture(key: str) -> str:
    if key == "<packaged>":
        from importlib import resources

        return resources.files(__package__).joinpath("families.json").read_text("utf-8")
    return Path(key).read_text(encoding="utf-8")


def load_families(refresh: bool = False) -> dict[str, TiltingFamily]:
    """All table rows, keyed by id, in file order.

    The environment variable ``PERICAT_FIXTURES`` may point at an alternative
    JSON file (or a directory containing ``families.json``).
    """
    key = _fixture_key()
    if refresh or key not in _CACHE:
        payload = json.loads(_read_fixture(key))
        families: dict[str, TiltingFamily] = {}
        for record in payload["families"]:
            fam = _parse_family(record)
            if fam.id in families:
                raise ValueError(f"duplicate family id {fam.id!r}")
            families[fam.id] = fam
        _CACHE[key] = families
    return _CACHE[key]


def _integral_borel_matches(lam: Weight) -> list[tuple[str, dict[str, Fraction], Fraction]]:
    """(family id, params, omega shift) for fully integral rank-3 weights."""
    out: list[tuple[str, dict[str, Fraction], Fraction]] = []
    l0, l1, l2 = lam
    if l1 - l0 == 1:  # shape (k, k+1, k+b)
        k, b = l0, l2 - l0
        if b > 2:
            out.append(("5.1", {"b": b}, k))
        elif b == 1:
            out.append(("5.2", {}, k))
        elif b < -1:
            out.append(("5.3", {"b": b}, k))
        elif b == -1:
            out.append(("5.4", {}, k))
        elif b == 0:
            out.append(("5.5", {}, k))
        # b == 2 is resolved by the (2,3) pattern below.
    if l2 - l0 == 1:  # shape (k, k+c, k+1)
        k, c = l0, l1 - l0
        if c > 1:
            out.append(("5.6", {"c": c}, k))
        elif c == 1:
            out.append(("5.7", {}, k))
        elif c == -1:
            out.append(("5.8", {}, k))
        elif c < -1:
            out.append(("5.9", {"c": c}, k))
        # c == 0 is resolved by the (2,3) pattern below.
    if l2 - l1 == 1:  # shape (k+a, k, k+1)
        k, a = l1, l0 - l1
        if a < -2:
            out.append(("5.10", {"a": a}, k))
        elif a == -2:
            out.append(("5.14", {}, k))
        elif a == -1:
            out.append(("5.15", {}, k))
        elif a == 0:
            out.append(("5.13", {}, k))
        elif a == 1:
            out.append(("5.12", {}, k))
        else:  # a > 1
            out.append(("5.11", {"a": a}, k))
    return out


def _mixed_borel_matches(lam: Weight) -> list[tuple[str, dict[str, Fraction], Fraction]]:
    """Matches for weights whose first two coordinates are congruent mod Z
    while the third lies in a different class."""
    l0, l1, l2 = lam
    if l1 - l0 == 1:
        k = l0
        return [("5.5-2", {"c": l2 - k}, k)]
    return []


def _p21_matches(lam: Weight) -> list[tuple[str, dict[str, Fraction], Fraction]]:
    out: list[tuple[str, dict[str, Fraction], Fraction]] = []
    l0, l1, l2 = lam
    if l0 - l1 == 1:  # shape (k+1, k, k+a)
        k, a = l1, l2 - l1
        if a >= 3:
            out.append(("5.8-1", {"a": a}, k))
        elif a == 2:
            out.append(("5.8-2", {}, k))
        elif a == 1:
            out.append(("5.8-3", {}, k))
        elif a == 0:
            out.append(("5.8-4", {}, k))
        elif a == -1:
            out.append(("5.8-5", {}, k))
        else:  # a <= -2
            out.append(("5.8-6", {"a": a}, k))
    if l2 - l0 == 1:  # shape (k+1, k+a, k+2)
        k = l0 - 1
        a = l1 - k
        if a <= -2:
            out.append(("5.8-7", {"a": a}, k))
        elif a == -1:
            out.append(("5.8-8", {}, k))
    return out


def _shift_family_hw(fam: TiltingFamily, params: Mapping[str, Fraction], k: Fraction) -> Weight:
    base = fam.highest_weight(params)
    return tuple(c + k for c in base)


def lookup_tilting_pe3(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """Tilting character for a rank-3 highest weight.

    Weakly typical weights are answered by the character engine for any
    parabolic.  Otherwise the weight is matched against the stored table
    rows:  the standard-parabolic rows cover every integral weight as well
    as the mixed-integrality shape where the first two coordinates differ by
    one, and the ``(2,1)``-parabolic rows cover the eight stored shapes.
    Raises :class:`NoTableEntry` when nothing matches.
    """
    if len(lam) != 3:
        raise ValueError(f"table lookup requires rank 3, got {len(lam)}")
    lam = weight(*lam)
    if p is None:
        p = borel(3)
    p = tuple(p)
    require_p_dominant(lam, p)
    if is_p_weakly_typical(lam, p):
        return weakly_typical_tilting(lam, p)

    d1, d2 = lam[1] - lam[0], lam[2] - lam[0]
    matches: list[tuple[str, dict[str, Fraction], Fraction]] = []
    if p == (1, 1, 1):
        if is_integer(d1) and is_integer(d2):
            matches = _integral_borel_matches(lam)
        elif is_integer(d1) and not is_integer(d2):
            matches = _mixed_borel_matches(lam)
    elif p == (2, 1):
        if is_integer(d1) and is_integer(d2):
            matches = _p21_matches(lam)
    else:
        raise NoTableEntry(
            f"no tables for parabolic {p}; only the weakly typical route "
            f"covers it, and {format_weight(lam)} is not weakly typical"
        )

    if not matches:
        log.debug(
            "no table pattern matches weight %s (parabolic %s)",
            format_weight(lam),
            p,
        )
        raise NoTableEntry(
            f"no table entry for weight {format_weight(lam)} with parabolic {p}"
        )

    families = load_families()
    chars: list[FormalChar] = []
    for fam_id, params, k in matches:
        fam = families[fam_id]
        assert fam.parabolic == p, (fam_id, fam.parabolic, p)
        assert _shift_family_hw(fam, params, k) == lam, (fam_id, params, k, lam)
        chars.append(shift_by_omega(fam.instantiate(params), k))
    first = chars[0]
    for other, (fam_id, _, _) in zip(chars[1:], matches[1:]):
        assert other == first, (
            f"families {matches[0][0]} and {fam_id} disagree at "
            f"{format_weight(lam)}"
        )
    return first
