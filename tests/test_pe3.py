"""pe(3) tilting table data, the lookup router, and the verification suite."""

import itertools
import json
from fractions import Fraction

import pytest

import reference
from conftest import B3, W, corrupt_row, nab_sum, normalised, same_block
from pericat.characters import (
    NABLA,
    FormalChar,
    _theta_images,
    nabla,
    nabla_sum_to_delta_sum,
    shift_by_omega,
    theta_char,
)
from pericat.pe3 import tables
from pericat.pe3 import verify
from pericat.pe3.tables import (
    NoTableEntry,
    TableIntegrityError,
    load_families,
    lookup_tilting_pe3,
)
from pericat.pe3.verify import (
    _closure_alphabet,
    _instances,
    decompose_into_tiltings,
    delta_flag_bound_report,
    pe2_property_check,
    verify_tables,
    verify_theorem_D,
)
from pericat.tilting import weakly_typical_tilting
from pericat.weights import (
    format_weight,
    is_p_dominant,
    is_p_weakly_typical,
    shift,
    weight,
)


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


def test_lookup_miss_raises_without_warning(capfd):
    # A miss is expected and handled by callers; it must not reach stderr.
    with pytest.raises(NoTableEntry, match="2,0,1"):
        lookup_tilting_pe3(W(2, 0, 1), (2, 1))
    assert capfd.readouterr().err == ""


def test_lookup_round_trips_every_row():
    # Each stored row at each sample instance, shifted by k*omega, is found
    # again by the lookup wherever the weight is not weakly typical.
    checked = skipped = 0
    for fam in load_families().values():
        for params in _instances(fam, 6):
            for k in (0, 1, -2, Fraction(1, 2)):
                lam = shift(fam.highest_weight(params), k)
                if is_p_weakly_typical(lam, fam.parabolic):
                    skipped += 1
                    continue
                expected = shift_by_omega(fam.instantiate(params), k)
                assert lookup_tilting_pe3(lam, fam.parabolic) == expected, (fam.id, params, k)
                checked += 1
    assert (checked, skipped) == (236, 144)


@pytest.mark.parametrize("p, hits, misses", [((1, 1, 1), 256, 142), ((2, 1), 88, 96)])
def test_lookup_hit_and_miss_counts(p, hits, misses):
    # Every p-dominant, non-weakly-typical weight over a small box of
    # integers and halves: the stored rows reach exactly these.
    values = list(range(-3, 4)) + [Fraction(k, 2) for k in range(-5, 6, 2)]
    outcomes = []
    for coords in itertools.product(values, repeat=3):
        lam = weight(*coords)
        if is_p_dominant(lam, p) and not is_p_weakly_typical(lam, p):
            try:
                lookup_tilting_pe3(lam, p)
                outcomes.append(True)
            except NoTableEntry:
                outcomes.append(False)
    assert (outcomes.count(True), outcomes.count(False)) == (hits, misses)


@pytest.mark.parametrize("lam, p", [((0, 1, 0), (1, 2)), ((2, 1, 0), (3,))])
def test_lookup_miss_without_rows_names_weight_and_parabolic(lam, p):
    # No stored row has these parabolics; the miss reads like any other.
    with pytest.raises(NoTableEntry) as exc:
        lookup_tilting_pe3(W(*lam), p)
    assert str(exc.value) == f"no table entry for weight {format_weight(lam)} with parabolic {p}"


def test_widened_row_domain_is_caught(tmp_path, monkeypatch):
    # Row 5.1 (0,1,b) with b >= 2 instead of b >= 3 reaches (0,1,2), which
    # row 5.15 covers at shift 1 with a different character.
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, "5.1", "widen-domain")))
    with pytest.raises(TableIntegrityError, match="families 5.1 and 5.15 disagree at 0,1,2"):
        lookup_tilting_pe3(W(0, 1, 2))


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
    with pytest.raises(TableIntegrityError, match="family 5.4"):
        fams["5.4"].instantiate()
    monkeypatch.delenv("PERICAT_FIXTURES")
    assert load_families()["5.4"].instantiate().coeff(NABLA, W(0, 1, -1)) == 1


def test_corrupt_row_gives_fail_rows(tmp_path, monkeypatch):
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path)))
    with pytest.raises(TableIntegrityError, match="family 5.4: coefficient 2"):
        lookup_tilting_pe3(W(0, 1, -1))
    by_name = {r.name: r for r in verify_tables(param_bound=4)}
    bad = "5.4: instantiate: family 5.4: coefficient 2 at 0,-1,1"
    assert not by_name["table-5.4"].ok
    assert by_name["table-5.4"].failures == (bad + "; all stored coefficients are 1",)
    # other rows whose theta images reach 5.4 fail naming it too
    assert any("family 5.4" in f for f in by_name["table-5.3"].failures)
    assert any(f.startswith(bad) for f in by_name["delta-flag-bound"].failures)
    assert by_name["rows-5.2==5.7"].ok
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, "5.2")))
    rows = {r.name: r for r in verify_tables(param_bound=4)}["rows-5.2==5.7"]
    assert not rows.ok
    assert rows.failures[0].startswith("family 5.2: coefficient 2 at -1,0,1")


@pytest.mark.parametrize(
    "fam_id, mutation, message",
    [
        ("5.4", "no-highest-weight",
         "family 5.4: highest weight 0,1,-1 must appear with coefficient 1"),
        ("5.4", "unlinked",
         "family 5.4: term 1/2,-1,1 is not linked to the highest weight 0,1,-1"),
        ("5.8-2", "not-p-dominant",
         "family 5.8-2: term -1,0,2 lies outside Sigma_p^+ for p=(2, 1)"),
        ("5.4", "undeclared-token",
         "family 5.4: token 'd' is neither a number nor a declared parameter"),
    ],
)
def test_integrity_messages(tmp_path, monkeypatch, fam_id, mutation, message):
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, fam_id, mutation)))
    fam = load_families()[fam_id]  # a corrupt row still loads
    with pytest.raises(TableIntegrityError) as exc:
        fam.instantiate()
    assert str(exc.value) == message
    report = {r.name: r for r in verify_tables(param_bound=4)}[f"table-{fam_id}"]
    assert not report.ok
    assert report.failures == (f"{fam_id}: instantiate: {message}",)


def test_decompose_into_tiltings():
    t1 = lookup_tilting_pe3(W(0, 1, 0))
    t2 = lookup_tilting_pe3(W(0, 0, 1))
    combo = 2 * t1 + t2
    parts = decompose_into_tiltings(combo, B3, {})
    assert parts == {W(0, 1, 0): 2, W(0, 0, 1): 1}
    with pytest.raises(ValueError):
        decompose_into_tiltings(t1 - 2 * t2, B3, {})


def test_verify_theorem_d():
    reports = verify_theorem_D(param_bound=4)
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


def test_compiled_rows_match_string_route():
    records = {
        rec["id"]: rec for rec in json.loads(tables._read_fixture("<packaged>"))["families"]
    }
    count = 0
    for fam in load_families().values():
        for params in _instances(fam, 6):
            hw, chi = fam.highest_weight(params), fam.instantiate(params)
            want = reference.row_instance(records[fam.id], params)
            assert (hw, reference.terms(chi)) == want, (fam.id, params)
            assert all(normalised(lam) for lam in {hw} | chi.support()), (fam.id, params)
            count += 1
    assert count == 95  # every family at bound 6, non-integral samples included


def test_decompose_memo_matches_fresh_lookups():
    def outcome(image, p, memo):
        try:
            return decompose_into_tiltings(image, p, memo)
        except (NoTableEntry, ValueError) as exc:
            return type(exc), str(exc)

    memo: dict = {}
    images = 0
    for fam in load_families().values():
        for params in _instances(fam, 4):
            chi = fam.instantiate(params)
            for a in _closure_alphabet(chi):
                image = theta_char(a, chi)
                if image.is_zero():
                    continue
                images += 1
                fresh = outcome(image, fam.parabolic, {})
                assert outcome(image, fam.parabolic, memo) == fresh, (fam.id, a)
    assert images > 0 and memo


def test_skipped_images_follow_the_failures(tmp_path, monkeypatch):
    # Row 5.8-4 corrupt: theta_-1 of row 5.8-3 looks it up and fails, while
    # its theta_1 image stays outside the (2,1) tables; both lines are kept.
    monkeypatch.setenv("PERICAT_FIXTURES", str(corrupt_row(tmp_path, "5.8-4")))
    report = {r.name: r for r in verify_tables(param_bound=4)}["table-5.8-3"]
    assert not report.ok
    assert report.failures == (
        "5.8-3: theta_-1: family 5.8-4: coefficient 2 at 0,-1,0; "
        "all stored coefficients are 1",
        "skipped: 5.8-3: theta_1: no table entry for weight 2,0,1 with parabolic (2, 1)",
    )


def test_theta_images_match_theta_char_term_for_term():
    # The closure check translates a row by its whole alphabet at once; each
    # image must be theta_char's, in the same term order (the order breaks
    # ties between heads of equal degree).
    for fam in load_families().values():
        for params in _instances(fam, 6):
            chi = fam.instantiate(params)
            alphabet = _closure_alphabet(chi) + [Fraction(1, 3)]
            for a, image in zip(alphabet, _theta_images(alphabet, chi)):
                single = theta_char(a, chi)
                assert list(image.terms.items()) == list(single.terms.items()), (fam.id, a)
    assert _theta_images([0, 1], FormalChar()) == [FormalChar(), FormalChar()]


def _decomposition(decompose):
    try:
        return list(decompose().items())  # the heads in the order taken
    except (NoTableEntry, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("bound", [4, 6])
def test_decompose_matches_pairwise_reference(bound, monkeypatch):
    images = []

    def record(chi, p, memo):
        images.append((chi, p))
        return decompose_into_tiltings(chi, p, memo)

    monkeypatch.setattr(verify, "decompose_into_tiltings", record)
    verify_tables(param_bound=bound)
    assert len(images) == {4: 381, 6: 577}[bound]
    t1, t2 = lookup_tilting_pe3(W(0, 1, 0)), lookup_tilting_pe3(W(0, 0, 1))
    extra = [
        (t1 - 2 * t2, B3),  # goes negative
        (t1 - t2, B3),
        (t2 - t1, B3),  # a non-positive head
        (t1 + nab_sum((-5, -7, -9)) - 2 * nab_sum((-5, -7, -9)), B3),  # an input below zero
        (2 * t1 + t2, B3),
    ]
    outcomes = {"parts": 0, "errors": 0}
    for chi, p in images + extra:
        got = _decomposition(lambda: decompose_into_tiltings(chi, p, {}))
        assert got == _decomposition(lambda: reference.decompose(reference.terms(chi), p)), (chi, p)
        outcomes["parts" if isinstance(got, list) else "errors"] += 1
    assert outcomes["errors"] >= 4 and outcomes["parts"] > 300
