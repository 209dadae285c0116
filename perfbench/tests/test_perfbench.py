"""The benchmark's own tests: seeded inputs repeat, printed metric names
are the declared ones, and every correctness gate can fail.

    python3 -m pytest perfbench/tests -q
"""

import json
from pathlib import Path

import pytest

import run
import workloads
from workloads import WORKLOADS

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_items(name):
    gen = WORKLOADS[name].generate
    assert gen(7, 0) == gen(7, 0)
    assert gen(7, 3) == gen(7, 3)
    assert [gen(7, r) for r in range(4)] != [gen(8, r) for r in range(4)]


def test_workloads_match_declaration():
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


def _small(monkeypatch, name):
    """Shrink every round to a few items so one run takes seconds."""
    wl = WORKLOADS[name]
    if name == "verify-cli":
        items = [{"suite": "props"}, {"suite": "thmD"}]
    else:
        items = wl.generate(1, 0)[:3]
    monkeypatch.setitem(WORKLOADS, name, wl._replace(generate=lambda seed, index: items))
    monkeypatch.setattr(run, "MIN_ROUNDS", 1)
    monkeypatch.setitem(run.MIN_ITEMS, name, 1)
    monkeypatch.setattr(run, "TRACE_ROUNDS", 1)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_printed_metrics_are_declared(monkeypatch, capsys, name, trace):
    _small(monkeypatch, name)
    code = run.main(["--workload", name, "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0 and last["correct"] and last["failed"] == 0
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }


# --- each gate rejects a perturbed answer ------------------------------------


def _first(name, pred=lambda args: True):
    wl = WORKLOADS[name]
    for index in range(4):
        for item in wl.generate(1, index):
            args = wl.prepare(item)
            if pred(args):
                return wl, args
    raise AssertionError(f"no {name} item matches")


def test_mult_gate_rejects_perturbed_value():
    wl, args = _first("mult-grid", lambda a: len(a[0]) == 3 and a[2] is not None)
    verma, parabolic = wl.execute(args)
    assert wl.check(args, (verma, parabolic))[0] == "ok"
    assert wl.check(args, ([1 - verma[0]] + verma[1:], parabolic))[0] == "failed"
    hit = verma.index(1)
    assert wl.check(args, (verma[:hit] + [2] + verma[hit + 1 :], parabolic))[0] == "failed"
    assert wl.check(args, (verma, [-1] + parabolic[1:]))[0] == "failed"


def test_kl_gate_rejects_perturbed_polynomial():
    wl = WORKLOADS["kl-cold"]
    args = ((0, 1, 2, 3), (2, 3, 0, 1), True)  # P_{e,3412} = 1 + q
    poly = wl.execute(args)
    assert poly == (1, 1) and wl.check(args, poly)[0] == "ok"
    assert wl.check(args, (1, 2))[0] == "failed"  # passes the shape checks
    assert wl.check(args, (2, 1))[0] == "failed"
    assert wl.check(args, (1, 1, 1))[0] == "failed"


def test_tilting_gate_rejects_perturbed_character():
    from pericat.characters import delta, nabla

    wl, args = _first(
        "tilting-sweep", lambda a: a[1] == (1, 1, 1) and workloads.bench_weakly_typical(*a)
    )
    answer = wl.execute(args)
    assert wl.check(args, answer)[0] == "ok"
    lam, p = args
    extra = nabla(tuple(c - 4 for c in lam), p)
    a, image = answer.thetas[0]
    bad_theta = answer._replace(thetas=((a, image + extra),) + answer.thetas[1:])
    assert wl.check(args, bad_theta)[0] == "failed"
    assert wl.check(args, answer._replace(round_trip=answer.chi + extra))[0] == "failed"
    bad_form = answer.delta_form + delta(tuple(c - 4 for c in lam), p)
    assert wl.check(args, answer._replace(delta_form=bad_form))[0] == "failed"
    refusal = workloads.TiltAnswer(None, None, None, (), "NoTableEntry")
    assert wl.check(args, refusal)[0] == "failed"  # lam is weakly typical here


def test_verify_gate_rejects_perturbed_report():
    wl = WORKLOADS["verify-cli"]
    argv = wl.prepare({"suite": "props"})
    code, text = wl.execute(argv)
    assert wl.check(argv, (code, text))[0] == "ok"
    assert wl.check(argv, (1, text))[0] == "failed"
    report = json.loads(text)
    report["results"][0]["ok"] = False
    assert wl.check(argv, (code, json.dumps(report)))[0] == "failed"
    rows = [
        {"name": f"table-{i}", "ok": True, "detail": "checked=1", "failures": []}
        for i in range(workloads.PE3_ROWS - 1)
    ]
    red = {"name": "delta-flag-bound", "ok": False, "detail": "checked=65", "failures": ["x"] * 36}
    pe3 = wl.prepare({"suite": "pe3"})
    good = {"suite": "pe3", "ok": False, "results": rows + [red]}
    assert wl.check(pe3, (1, json.dumps(good)))[0] == "ok"
    fewer = {**good, "results": rows + [{**red, "failures": ["x"] * 35}]}
    assert wl.check(pe3, (1, json.dumps(fewer)))[0] == "failed"
    second_red = {**good, "results": [{**rows[0], "ok": False}] + rows[1:] + [red]}
    assert wl.check(pe3, (1, json.dumps(second_red)))[0] == "failed"
    assert wl.check(pe3, (0, json.dumps(good)))[0] == "failed"
