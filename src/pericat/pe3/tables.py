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
weight in the character by the same multiple of ``omega``).  The shape of a
row lives only in its ``hw`` pattern and parameter domains: a lookup solves
every row of the requested parabolic, so a row added to a replacement file
is reachable.  Each (row, parameters) instance is built and validated the
first time a lookup or a verifier asks for it, and kept with its file:
switching ``PERICAT_FIXTURES`` never serves another file's rows, and a
lookup returns the kept instance shifted, as a character of its own.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction
from pathlib import Path
from typing import Mapping, NamedTuple, Optional, Union

from ..characters import NABLA, FormalChar, shift_by_omega, symbol
from ..linkage import block_label
from ..tilting import _weakly_typical_tilting
from ..weights import (
    _ints,
    Coord,
    Parabolic,
    Weight,
    borel,
    exact,
    format_weight,
    is_p_dominant,
    is_p_weakly_typical,
    require_p_dominant,
    shift,
    weight,
)

Numeric = Union[int, Fraction, str]


class NoTableEntry(Exception):
    """No stored family covers the requested weight/parabolic pair."""


class TableIntegrityError(ValueError):
    """A stored family breaks a rule every table row must keep; the message
    names the family.  Raised instead of ``assert``, so the checks also run
    under ``python -O``."""


class ParamSpec(NamedTuple):
    """Domain of one family parameter.

    ``kind`` is ``"int"`` (integer, optionally bounded) or ``"nonint"``
    (any rational with denominator > 1).
    """

    kind: str
    min: Optional[int] = None
    max: Optional[int] = None

    def admits(self, value: Coord) -> bool:
        """Whether an exact value (see ``weights.exact``) lies in the domain."""
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


# The values at which the checkers instantiate a "nonint" parameter.
NONINT_SAMPLES = (Fraction(1, 2), Fraction(3, 2), Fraction(-5, 2))

# A compiled pattern coordinate: an exact constant, or the name of a
# parameter (or an unparsable token, refused when the row is instantiated).
Token = Union[Coord, str]


class TiltingFamily(NamedTuple):
    """One parametrised table row: highest weight pattern plus constituents."""

    id: str
    parabolic: Parabolic
    params: tuple[tuple[str, ParamSpec], ...]
    hw: tuple[Token, ...]
    terms: tuple[tuple[tuple[Token, ...], int], ...]

    @property
    def param_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.params)

    def _resolve(self, values: Optional[Mapping[str, Numeric]]) -> dict[str, Coord]:
        given = {k: exact(v) for k, v in (values or {}).items()}
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

    def _substitute(self, pattern: tuple[Token, ...], values: Mapping[str, Coord]) -> Weight:
        try:
            return tuple(values[t] if type(t) is str else t for t in pattern)
        except KeyError as exc:
            raise TableIntegrityError(
                f"family {self.id}: token {exc.args[0]!r} is neither a number "
                "nor a declared parameter"
            ) from None

    def highest_weight(self, values: Optional[Mapping[str, Numeric]] = None) -> Weight:
        return self._substitute(self.hw, self._resolve(values))

    def instantiate(self, values: Optional[Mapping[str, Numeric]] = None) -> FormalChar:
        resolved = self._resolve(values)
        hw = self._substitute(self.hw, resolved)
        sym = symbol(NABLA, self.parabolic)
        terms: dict = {}
        for pattern, coeff in self.terms:
            key = (sym, self._substitute(pattern, resolved))
            terms[key] = terms.get(key, 0) + coeff
        chi = FormalChar(terms)
        if chi.terms.get((sym, hw), 0) != 1:
            raise TableIntegrityError(
                f"family {self.id}: highest weight {format_weight(hw)} must appear "
                "with coefficient 1"
            )
        hw_block = sorted(block_label(hw))
        for (_, mu), coeff in chi.terms.items():
            if coeff != 1:
                raise TableIntegrityError(
                    f"family {self.id}: coefficient {coeff} at {format_weight(mu)}; "
                    "all stored coefficients are 1"
                )
            if sorted(block_label(mu)) != hw_block:
                raise TableIntegrityError(
                    f"family {self.id}: term {format_weight(mu)} is not linked to "
                    f"the highest weight {format_weight(hw)}"
                )
            if not is_p_dominant(mu, self.parabolic):
                raise TableIntegrityError(
                    f"family {self.id}: term {format_weight(mu)} lies outside "
                    f"Sigma_p^+ for p={self.parabolic}"
                )
        return chi


def _compile_pattern(text: str, names: Mapping[str, ParamSpec]) -> tuple[Token, ...]:
    out: list[Token] = []
    for token in text.split(","):
        token = token.strip()
        if token not in names:
            try:
                token = exact(token)
            except ValueError:
                pass  # kept as a name; instantiate reports it
        out.append(token)
    return tuple(out)


def _field(record, name: str, kind: type, where: str, default=None):
    """record[name], or default when absent, of JSON type kind: else TableIntegrityError."""
    value = record.get(name, default) if type(record) is dict else None
    if type(value) is not kind:
        what = f"no {name!r} field" if value is None else f"{name!r} is not a {kind.__name__}"
        raise TableIntegrityError(f"{where}: {what}")
    return value


def _parse_family(record, where: str) -> TiltingFamily:
    """One fixture record as a row, its fields read by `_field`.  An unknown
    parameter kind, a bound that is not an integer or null, or a term that is
    not a [pattern, integer coefficient] pair raises TableIntegrityError too."""
    fam_id = _field(record, "id", str, where)
    params: dict[str, ParamSpec] = {}
    for name, spec in _field(record, "params", dict, where, {}).items():
        kind = _field(spec, "kind", str, where)
        if kind not in ("int", "nonint"):
            raise TableIntegrityError(f"{where}: unknown parameter kind {kind!r}")
        for bound in ("min", "max"):
            if type(spec.get(bound)) not in (int, type(None)):
                raise TableIntegrityError(f"{where}: {name}.{bound} is not an integer or null")
        params[name] = ParamSpec(kind, spec.get("min"), spec.get("max"))
    hw = _compile_pattern(_field(record, "hw", str, where), params)
    pairs = _field(record, "terms", list, where)
    try:
        terms = tuple((_compile_pattern(pattern, params), int(coeff)) for pattern, coeff in pairs)
    except (AttributeError, TypeError, ValueError):  # a term's unpacking, split or int()
        raise TableIntegrityError(
            f"{where}: a term is not a [pattern, integer coefficient] pair") from None
    parabolic = tuple(_field(record, "parabolic", list, where))
    return TiltingFamily(fam_id, parabolic, tuple(params.items()), hw, terms)


class _Fixture(NamedTuple):
    """One fixture file: its rows by id in file order, and the row instances
    built and validated so far."""

    families: dict[str, TiltingFamily]
    kept: dict

    def row(self, fam_id: str) -> TiltingFamily:
        """The row of this file with id fam_id; TableIntegrityError names a missing one."""
        if fam_id not in self.families:
            raise TableIntegrityError(f"family {fam_id}: no such row in the fixture file")
        return self.families[fam_id]

    def instance(self, fam: TiltingFamily, params: dict[str, Coord]) -> FormalChar:
        """fam.instantiate(params) for a row of this file, kept once it has
        validated: a failing instance is never kept, so it raises on every
        call.  Callers share the kept character: its `terms` is read-only."""
        key = (fam.id, *params.items())
        chi = self.kept.get(key)
        if chi is None:
            chi = self.kept[key] = fam.instantiate(params)
        return chi


_CACHE: dict[str, _Fixture] = {}


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


def _fixture() -> _Fixture:
    """The fixture file that ``PERICAT_FIXTURES`` names, loaded once."""
    key = _fixture_key()
    if key not in _CACHE:
        try:
            payload = json.loads(_read_fixture(key))
        except ValueError as exc:  # not JSON, or not UTF-8
            raise TableIntegrityError(f"the fixture file is not JSON: {exc}") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("families"), list):
            raise TableIntegrityError("the fixture file has no 'families' list")
        families: dict[str, TiltingFamily] = {}
        for pos, record in enumerate(payload["families"], 1):
            where = f"family {record.get('id', f'#{pos}') if type(record) is dict else f'#{pos}'}"
            fam = _parse_family(record, where)
            if fam.id in families:
                raise TableIntegrityError(f"{where}: an earlier record has the same id")
            families[fam.id] = fam
        _CACHE[key] = _Fixture(families, {})
    return _CACHE[key]


def load_families() -> dict[str, TiltingFamily]:
    """All table rows, keyed by id, in file order.

    The environment variable ``PERICAT_FIXTURES`` may point at an alternative
    JSON file (or a directory containing ``families.json``).
    """
    return _fixture().families


def _solve(fam: TiltingFamily, base: Weight) -> Optional[tuple[dict[str, Coord], Coord]]:
    """(params, k) with base = hw(params) + k*omega and every parameter inside
    its domain, or None: one k serves every constant of the row's highest
    weight, and each parameter is base_i - k wherever it appears."""
    shifts = [c - t for t, c in zip(fam.hw, base) if type(t) is not str]
    if len(fam.hw) != len(base) or not shifts or shifts.count(shifts[0]) != len(shifts):
        return None
    k = shifts[0]
    values: dict[str, Coord] = {}
    for t, c in zip(fam.hw, base):
        if type(t) is str and values.setdefault(t, c - k) != c - k:
            return None
    for name, spec in fam.params:
        if name not in values or not spec.admits(values[name]):
            return None
    # an undeclared token stays out, so instantiate names it as corrupt
    return {name: values[name] for name, _ in fam.params}, k


def lookup_tilting_pe3(lam: Weight, p: Optional[Parabolic] = None) -> FormalChar:
    """Tilting character for a rank-3 highest weight.

    Weakly typical weights are answered by the character engine for any
    parabolic.  Otherwise every row of parabolic p is solved in file order,
    lam = hw(params) + k*omega with each parameter inside its domain, and
    the first match is returned: its kept instance shifted by k.  Raises
    :class:`NoTableEntry` when no row matches (the stored rows are
    Borel and ``(2,1)`` only) and :class:`TableIntegrityError` when a
    matching row is corrupt or two matching rows disagree.  A coordinate
    that is not an int or Fraction, a numeric string too, raises TypeError
    naming it; an integral Fraction is read as its int.
    """
    if len(lam) != 3:
        raise ValueError(f"table lookup requires rank 3, got {len(lam)}")
    _ints(lam)  # a string is refused, not parsed
    lam = weight(*lam)
    p = borel(3) if p is None else p
    require_p_dominant(lam, p)
    if is_p_weakly_typical(lam, p):
        return _weakly_typical_tilting(lam, p)  # guarded just above

    fixture = _fixture()
    base = shift(lam, -lam[0])  # int wherever lam's first class allows: no Fraction arithmetic
    matches = []
    for fam in fixture.families.values():
        solved = _solve(fam, base) if fam.parabolic == p else None
        if solved is not None:
            params, k = solved
            matches.append((fam.id, shift_by_omega(fixture.instance(fam, params), k + lam[0])))
    if not matches:
        raise NoTableEntry(
            f"no table entry for weight {format_weight(lam)} with parabolic {p}"
        )
    (first_id, first), *others = matches
    for fam_id, other in others:
        if other != first:
            raise TableIntegrityError(
                f"families {first_id} and {fam_id} disagree at {format_weight(lam)}"
            )
    return first
