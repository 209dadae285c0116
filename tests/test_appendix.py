"""Replay of the worked pe(3) derivations against the stored tables."""

import json
import time

import pytest

from pericat.pe3.appendix import DEFAULT_SAMPLES, StepRecord, replay_appendix


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
