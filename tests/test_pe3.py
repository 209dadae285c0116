"""pe(3) tilting table data, the lookup router, and the verification suite."""

import json
import logging
import shutil
from fractions import Fraction

import pytest

from conftest import B3, W, nab_sum, normalised
from pericat.characters import NABLA, char_sum, nabla, nabla_sum_to_delta_sum, shift_by_omega
from pericat.linkage import same_block
from pericat.pe3.tables import (
    NoTableEntry,
    instantiate,
    load_families,
    lookup_tilting_pe3,
)
from pericat.pe3.verify import (
    _instances,
    decompose_into_tiltings,
    delta_flag_bound_report,
    pe2_property_check,
    verify_tables,
    verify_theorem_D,
)
from pericat.tilting import weakly_typical_tilting


def test_family_count_and_ids():
    fams = load_families()
    assert len(fams) == 27
    for fid in ("5.1", "5.4", "5.15", "5.5-2", "5.8-1"):
        assert fid in fams


def test_instantiate_fixtures():
    fams = load_families()
    assert fams["5.5"].instantiate() == nab_sum((0, 1, 0), (0, 0, 1), (-1, 0, 0))
    six = fams["5.15"].instantiate()
    assert six == nab_sum(
        (-1, 0, 1), (-1, -1, 0), (-2, -1, 1), (-3, -1, 0), (-2, -1, -1), (-3, -2, -1)
    )
    p_row = fams["5.8-1"].instantiate({"a": 3})
    assert p_row.support() == {W(1, 0, 3), W(0, -1, 3)}
    assert all(c == 1 for c in p_row.terms.values())


def test_instantiate_rejects_bad_params():
    fams = load_families()
    with pytest.raises(ValueError):
        fams["5.1"].instantiate({"b": 2})  # needs b >= 3
    with pytest.raises(ValueError):
        fams["5.5-2"].instantiate({"c": 2})  # needs non-integral c


def test_instantiate_single_block():
    fams = load_families()
    for fid, params in (("5.3", {"b": -2}), ("5.11", {"a": 4}), ("5.9", {"c": -3})):
        chi = fams[fid].instantiate(params)
        hw = max(chi.support())
        for mu in chi.support():
            assert same_block(hw, mu)


def test_lookup_shifted_family():
    # (0,1,2) = (-1,0,1) + omega, so the lookup shifts the six-term family.
    chi = lookup_tilting_pe3(W(0, 1, 2))
    expected = shift_by_omega(lookup_tilting_pe3(W(-1, 0, 1)), 1)
    assert chi == expected
    assert len(chi.terms) == 6
    assert chi.coeff(NABLA, W(0, 1, 2)) == 1


def test_lookup_overlapping_families_agree():
    # (0,1,1) matches two stored rows with identical content.
    chi = lookup_tilting_pe3(W(0, 1, 1))
    assert chi == nab_sum((0, 1, 1), (-1, 0, 1), (-1, 1, 0))


def test_lookup_weakly_typical_route():
    chi = lookup_tilting_pe3(W(0, 4, "1/2"))
    assert chi == weakly_typical_tilting(W(0, 4, "1/2"))
    assert chi == nabla(W(0, 4, "1/2"))


def test_lookup_mixed_integrality_row():
    chi = lookup_tilting_pe3(W(0, 1, "1/2"))
    assert chi == nab_sum((0, 1, "1/2"), (-1, 0, "1/2"))


def test_lookup_p21():
    chi = lookup_tilting_pe3(W(1, 0, 3), (2, 1))
    assert chi.support() == {W(1, 0, 3), W(0, -1, 3)}
    with pytest.raises(NoTableEntry):
        lookup_tilting_pe3(W(5, 0, 1), (2, 1))


def test_lookup_miss_raises_without_warning(caplog):
    # A miss is expected and handled by callers; it must not reach stderr.
    with caplog.at_level(logging.DEBUG, logger="pericat.pe3.tables"):
        with pytest.raises(NoTableEntry):
            lookup_tilting_pe3(W(2, 0, 1), (2, 1))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert any("2,0,1" in r.getMessage() for r in caplog.records)


def test_lookup_shift_consistency_across_patterns():
    # Row 5.13 shifted: T_{1,1,2} = T_{0,0,1} + omega.
    chi = lookup_tilting_pe3(W(1, 1, 2))
    assert chi == shift_by_omega(lookup_tilting_pe3(W(0, 0, 1)), 1)


def test_fixture_override(tmp_path, monkeypatch):
    import pericat.pe3.tables as tables_mod

    src = tables_mod._read_fixture(tables_mod._fixture_key())
    doc = json.loads(src)
    # Corrupt one coefficient of row 5.4.
    for rec in doc["families"]:
        if rec["id"] == "5.4":
            rec["terms"][0][1] = 7
    alt = tmp_path / "families.json"
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv("PERICAT_FIXTURES", str(alt))
    fams = load_families()
    with pytest.raises(AssertionError):
        fams["5.4"].instantiate()
    monkeypatch.delenv("PERICAT_FIXTURES")
    assert load_families()["5.4"].instantiate().coeff(NABLA, W(0, 1, -1)) == 1


def test_decompose_into_tiltings():
    t1 = lookup_tilting_pe3(W(0, 1, 0))
    t2 = lookup_tilting_pe3(W(0, 0, 1))
    combo = 2 * t1 + t2
    parts = decompose_into_tiltings(combo, B3)
    assert parts == {W(0, 1, 0): 2, W(0, 0, 1): 1}
    with pytest.raises(ValueError):
        decompose_into_tiltings(t1 - 2 * t2, B3)


def test_verify_theorem_d():
    reports = verify_theorem_D(param_bound=4, grid_bound=1)
    assert len(reports) == 6
    for rep in reports:
        assert rep.ok, rep
        assert rep.checked > 0
    with pytest.raises(ValueError):
        verify_theorem_D(param_bound=3)


def test_pe2_property_check():
    rep = pe2_property_check(bound=2)
    assert rep.ok
    assert rep.checked > 0


def test_verify_tables_reports():
    reports = verify_tables(param_bound=4)
    by_name = {r.name: r for r in reports}
    # Every per-family data check passes.
    for name, rep in by_name.items():
        if name.startswith("table-"):
            assert rep.ok, (name, rep.failures[:3])
    assert by_name["rows-5.2==5.7"].ok
    # The flag-bound check records the computed counterexamples (the claim
    # it tests does not hold; see the README, "Known discrepancy").
    flag = by_name["delta-flag-bound"]
    assert not flag.ok
    assert any("(T_0,1,-1 : standard_-3,-2,-1) = 2" in f for f in flag.failures)


def test_delta_flag_bound_report_counts():
    rep = delta_flag_bound_report(param_bound=4)
    assert rep.name == "delta-flag-bound"
    assert not rep.ok
    assert len(rep.failures) == 36


def test_instantiate_keeps_integral_coordinates_int():
    # Parameters come in as Fractions; the rows still carry int coordinates
    # wherever a coordinate is integral (the non-integral samples too).
    seen_fraction = False
    for fam in load_families().values():
        for params in _instances(fam, 4):
            weights = {fam.highest_weight(params)} | fam.instantiate(params).support()
            for lam in weights:
                assert normalised(lam), (fam.id, params, lam)
                seen_fraction |= any(type(c) is Fraction for c in lam)
    assert seen_fraction


def test_delta_flag_bound_full_size():
    # The report keeps at most two examples per instantiation; this pins
    # the whole refutation it stands for (README, "Known discrepancy").
    above: dict = {}
    checked = 0
    for fam in load_families().values():
        for params in _instances(fam, 4):
            checked += 1
            hw = fam.highest_weight(params)
            dmults = nabla_sum_to_delta_sum(fam.instantiate(params))
            for (_, mu), c in dmults.terms.items():
                assert c > 0
                if c > 1:
                    above.setdefault((fam.id, tuple(sorted(params.items()))), {})[
                        (hw, mu)
                    ] = c
    pairs = {key: c for found in above.values() for key, c in found.items()}
    assert checked == 65
    assert len(above) == 19
    assert sum(len(found) for found in above.values()) == 111
    assert max(pairs.values()) == 3
    # four pairs, from two instantiations (5.3 at b=-2, 5.11 at a=2)
    assert {key for key, c in pairs.items() if c == 3} == {
        (W(0, 1, -2), W(-2, -1, -2)),
        (W(0, 1, -2), W(-2, -2, -1)),
        (W(2, 0, 1), W(-1, 0, 0)),
        (W(2, 0, 1), W(0, -1, 0)),
    }
    rep = delta_flag_bound_report(param_bound=4)
    assert (rep.checked, len(rep.failures)) == (65, 36)
