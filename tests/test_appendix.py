"""Replay of the worked pe(3) derivations against the stored tables."""

import itertools
import json
import time

import pytest

import reference
from conftest import W, without_row
from pericat.pe3 import appendix
from pericat.pe3.appendix import DEFAULT_SAMPLES, StepRecord, _certified, replay_appendix
from pericat.pe3.tables import TableIntegrityError
from pericat.weights import negate


def test_replay_all_steps_pass():
    t0 = time.perf_counter()
    records = replay_appendix()
    elapsed = time.perf_counter() - t0
    assert all(isinstance(r, StepRecord) for r in records)
    bad = [r for r in records if not r.ok]
    assert not bad, bad
    assert len(records) >= 100
    assert elapsed < 1.0


def test_replay_covers_every_numbered_identity():
    steps = {r.step for r in replay_appendix()}
    for k in range(1, 21):
        tag = f"6.{k}"
        assert any(tag in s for s in steps), f"missing identity {tag}"
    for concl in ("5.4", "5.5", "5.15"):
        assert any(s.startswith(concl) or s == concl for s in steps)


def _drop_last_term(rec):
    del rec["terms"][-1]  # drop one costandard term


def _wrong_weight(rec):
    rec["terms"][1][0] = "0,-1,-4"


@pytest.mark.parametrize(
    "fam_id, corrupt, failing",
    [("5.4", _drop_last_term, ["5.4", "6.6"]), ("5.13", _wrong_weight, ["5.13"])],
    ids=["5.4-drop-term", "5.13-wrong-weight"],
)
def test_replay_non_strict_collects_failures(tmp_path, monkeypatch, fam_id, corrupt, failing):
    import pericat.pe3.tables as tables_mod

    doc = json.loads(tables_mod._read_fixture(tables_mod._fixture_key()))
    for rec in doc["families"]:
        if rec["id"] == fam_id:
            corrupt(rec)
    alt = tmp_path / "families.json"
    alt.write_text(json.dumps(doc))
    monkeypatch.setenv("PERICAT_FIXTURES", str(alt))
    assert [r.step for r in replay_appendix() if not r.ok] == failing


def test_default_samples_shape():
    assert set(DEFAULT_SAMPLES) >= {
        "b_high",
        "b_low",
        "c_high",
        "c_low",
        "a_low",
        "a_high",
        "c_nonint",
    }
    for values in DEFAULT_SAMPLES.values():
        assert values  # non-empty tuples


def _fact_calls(monkeypatch) -> list:
    """(fact, tilt, nab, verdict) for every _fact_covers call of a replay."""
    calls = []
    real = appendix._fact_covers

    def spy(fact, tilt, nab):
        verdict = real(fact, tilt, nab)
        calls.append((fact, tilt, nab, verdict))
        return verdict

    monkeypatch.setattr(appendix, "_fact_covers", spy)
    assert all(r.ok for r in replay_appendix())
    return calls


def test_fact_covers_matches_up_set_oracle(monkeypatch):
    """_fact_covers is the old edge set {(-eta, -nu) : nu in the strong
    up-set of kac, by the reference's weight BFS}, on every pair of the box
    {-3..3}^3 and of the edges."""
    facts = {call[0] for call in _fact_calls(monkeypatch)}
    assert sorted(f.tag for f in facts) == ["6.1-V", "6.15", "6.2-I", "6.2-I", "6.2-IV", "6.2-IV"]
    box = list(itertools.product(range(-3, 4), repeat=3))
    for fact in facts:
        edges = {(negate(fact.eta), negate(nu)) for nu in reference.up_set(fact.kac)}
        tilts = box + [negate(fact.eta)]
        nabs = box + [nab for _, nab in edges]
        for tilt, nab in itertools.product(tilts, nabs):
            assert appendix._fact_covers(fact, tilt, nab) == ((tilt, nab) in edges), (fact, tilt, nab)


SOCLE_PAIRS = (
    [(W(-1, 1, 0), W(-2, 1, -1))]  # 6.1-V
    + [(W(0, c, 1), W(-1, c, 0)) for c in DEFAULT_SAMPLES["c_high"] + DEFAULT_SAMPLES["c_low"]]
    + [(W(1, 0, 1), nab) for nab in (W(-1, 1, 0), W(1, -1, 0), W(0, -1, 1), W(-1, 0, 1))]  # 6.15
)


def test_socle_pairs_need_the_socle_fact(monkeypatch):
    """The socle facts cover exactly the nine pairs of the socle steps, and
    the diagonal route certifies none of them."""
    covered = {(tilt, nab) for _, tilt, nab, ok in _fact_calls(monkeypatch) if ok}
    assert covered == set(SOCLE_PAIRS) and len(SOCLE_PAIRS) == 9
    for tilt, nab in SOCLE_PAIRS:
        assert not _certified(tilt, nab), (tilt, nab)


def test_a_missing_row_is_a_table_integrity_error(tmp_path, monkeypatch):
    monkeypatch.setenv("PERICAT_FIXTURES", str(without_row(tmp_path, "5.7")))
    with pytest.raises(TableIntegrityError, match="^family 5.7: no such row in the fixture file$"):
        replay_appendix()
