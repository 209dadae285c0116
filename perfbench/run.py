"""pericat benchmark runner.

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Each round of a workload runs in a fresh single-threaded worker process
(``worker.py``), one at a time, so caches start cold as they do for a
user's sweep script or CLI call.  ``--trace 0`` runs rounds until
``--seconds`` have passed and prints the end-to-end metrics; ``--trace 1``
runs a fixed number of rounds twice, untraced and traced, and prints the
per-layer metrics.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it is the full record, also written under ``perfbench/results/``.
The exit code is 0 only if every answer passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
WORKER = HERE / "worker.py"
sys.path.insert(0, str(HERE))

from workloads import VERIFY_SUITES, WORKLOADS  # noqa: E402
import tracing  # noqa: E402

# Seed 2002 is held out: tune on other seeds, and confirm a claimed gain on it.
HELDOUT_SEED = 2002
MIN_ROUNDS = 3
MIN_ITEMS = {"mult-grid": 100, "kl-cold": 100, "tilting-sweep": 100, "verify-cli": 12}
TRACE_ROUNDS = 3
WORKER_TIMEOUT_S = 150

# Host-speed correction.  On a shared VM the host's speed can drift by up
# to 30% between 20-second windows and by almost 2x over hours, and CPU
# time drifts with it.  The parent times a fixed stdlib workload before and after every
# worker; each time a worker reports is scaled by
# REFERENCE_LOOP_S / (mean of those two loop times), i.e. expressed in
# seconds of a host on which the loop takes REFERENCE_LOOP_S.  The loop
# does not touch pericat, so a change to the program cannot move it.
REFERENCE_LOOP_S = 0.0103
LOOP_ITERATIONS = 10_000
LOOP_REPEATS = 3


E2E_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    """The benchmark could not measure (missing sources, a crashed worker)."""


def reference_loop() -> float:
    """Median time of LOOP_REPEATS runs of a fixed workload shaped like
    pericat's inner loops: dict updates with tuple keys and, every 20th
    step, Fraction arithmetic, comparison and sorting of a small tuple."""
    times = []
    for _ in range(LOOP_REPEATS):
        start, table = time.perf_counter(), {}
        for i in range(LOOP_ITERATIONS):
            k = (i * 7919) % 50021
            table[(k, k >> 3)] = table.get((k, k >> 3), 0) + i
            if i % 20 == 0:
                a = (Fraction(i % 7, 2), Fraction(i % 5), Fraction(i % 3, 4))
                key = tuple(sorted(a))
                table[key] = table.get(key, 0) + (a[0] - a[1] < a[2])
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def spawn(request: dict) -> dict:
    """Run one worker to completion; add the parent-side timings."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(WORKER)],
            input=json.dumps(request),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {request['workload']} timed out") from exc
    t1 = time.monotonic()
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    expected = ROOT / "src" / "pericat" / "__init__.py"
    if Path(out["import_path"]).resolve() != expected.resolve():
        raise BenchError(f"pericat imported from {out['import_path']}, not {expected}")
    out["setup_s"] = out["ready"] - t0
    out["process_s"] = t1 - t0
    out["process_cpu_s"] = (after.ru_utime + after.ru_stime) - (before.ru_utime + before.ru_stime)
    return out


def run_round(workload: str, seed: int, index: int, trace: bool, spans_path: Path) -> dict:
    """One round as a list of worker results folded into one record, with
    every time scaled to the reference host speed.  verify-cli runs one
    worker per suite and times each whole process; the other workloads run
    the round's items in one worker."""
    items = WORKLOADS[workload].generate(seed, index)
    per_process = workload == "verify-cli"
    batches = [[item] for item in items] if per_process else [items]
    outs, loop = [], reference_loop()
    for batch in batches:
        out = spawn({"workload": workload, "items": batch, "trace": trace,
                     "spans_path": str(spans_path)})
        after = reference_loop()
        out["scale"] = REFERENCE_LOOP_S / ((loop + after) / 2)
        outs.append(out)
        loop = after
    if per_process:
        latencies = [o["process_s"] * o["scale"] for o in outs]
        wall = sum(latencies)
        cpu = sum(o["process_cpu_s"] * o["scale"] for o in outs)
        raw_wall = sum(o["process_s"] for o in outs)
    else:
        out = outs[0]
        latencies = [v * out["scale"] for v in out["latencies"]]
        wall, cpu, raw_wall = out["wall_s"] * out["scale"], out["cpu_s"] * out["scale"], out["wall_s"]
    return {
        "wall": wall,
        "raw_wall": raw_wall,
        "cpu": cpu,
        "scale": [o["scale"] for o in outs],
        "latencies": latencies,
        "rss_mb": max(o["rss_mb"] for o in outs),
        "setup": [o["setup_s"] * o["scale"] for o in outs],
        "raw_setup": [o["setup_s"] for o in outs],
        "import_s": [o["import_s"] * o["scale"] for o in outs],
        "fixtures_s": [o["fixtures_s"] * o["scale"] for o in outs],
        "statuses": [s for o in outs for s in o["statuses"]],
        "failures": [f for o in outs for f in o["failures"]],
        "suite_s": {i["suite"]: o["process_s"] * o["scale"] for i, o in zip(items, outs)}
        if per_process
        else {},
        "trace": [_scaled(o["trace"], o["scale"]) for o in outs if o["trace"]],
    }


def _scaled(summary: dict, scale: float) -> dict:
    return {**summary, "self_s": {k: v * scale for k, v in summary["self_s"].items()}}


def _all(rounds: list, key: str) -> list:
    return [v for r in rounds for v in r[key]]


def outcome(rounds: list) -> dict:
    statuses = _all(rounds, "statuses")
    attempted = len(statuses)
    failed = statuses.count("failed")
    return {
        "attempted": attempted,
        "failed": failed,
        "refused": statuses.count("refused"),
        "failed_ratio": failed / attempted,
        "refused_ratio": statuses.count("refused") / attempted,
        "failures": _all(rounds, "failures")[:10],
    }


def suite_medians(rounds: list) -> dict:
    """verify_<suite>_s for the suites every round ran (verify-cli only)."""
    suites = [s for s in VERIFY_SUITES if all(s in r["suite_s"] for r in rounds)]
    return {f"verify_{s}_s": statistics.median(r["suite_s"][s] for r in rounds) for s in suites}


def trimmed_mean(values) -> float:
    """Mean after dropping the lowest and highest tenth: the cost of a
    round varies with its seeded items, which a mean averages out, while
    a round caught in a host stall is dropped."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.mean(values[cut : len(values) - cut])


def end_to_end(rounds: list) -> dict:
    latencies = sorted(_all(rounds, "latencies"))
    res = outcome(rounds)
    answered = res["attempted"] - res["failed"]
    return {
        "setup_s": statistics.median(_all(rounds, "setup")),
        "wall_s": trimmed_mean(r["wall"] for r in rounds),
        "cpu_s": trimmed_mean(r["cpu"] for r in rounds),
        "items_per_s": answered / sum(r["wall"] for r in rounds),
        "item_p50_ms": 1e3 * statistics.median(latencies),
        "item_p90_ms": 1e3 * statistics.quantiles(latencies, n=10)[-1],
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
    }


def measure(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Untraced rounds until ``seconds`` have passed (and the minimums are
    met).  Returns (declared metrics, extra record fields)."""
    rounds, start = [], time.monotonic()
    while (
        time.monotonic() - start < seconds
        or len(rounds) < MIN_ROUNDS
        or sum(len(r["statuses"]) for r in rounds) < MIN_ITEMS[workload]
    ):
        rounds.append(run_round(workload, seed, len(rounds), False, Path(os.devnull)))
    metrics = end_to_end(rounds)
    extra = {
        **outcome(rounds),
        **suite_medians(rounds),
        "rounds": len(rounds),
        "latency_samples": len(_all(rounds, "latencies")),
        "round_wall_s": [r["wall"] for r in rounds],
        "raw_wall_s": trimmed_mean(r["raw_wall"] for r in rounds),
        "raw_setup_s": statistics.median(_all(rounds, "raw_setup")),
        "host_scale": statistics.median(_all(rounds, "scale")),
    }
    return metrics, extra


def measure_traced(workload: str, seed: int) -> tuple[dict, dict]:
    """The first TRACE_ROUNDS rounds, each run untraced and then traced in
    fresh workers.  Counts repeat exactly for a seed."""
    RESULTS.mkdir(exist_ok=True)
    spans_path = RESULTS / f"{workload}-seed{seed}.spans.jsonl"
    spans_path.unlink(missing_ok=True)
    plain, traced = [], []
    for index in range(TRACE_ROUNDS):
        plain.append(run_round(workload, seed, index, False, Path(os.devnull)))
        traced.append(run_round(workload, seed, index, True, spans_path))
    total = tracing.merge(_all(traced, "trace"))
    metrics = {k: v for k, (v, _) in tracing.layer_metrics(total).items()}
    both = plain + traced
    suites = suite_medians(plain)
    metrics.update(
        {
            "setup.import_s": statistics.median(_all(both, "import_s")),
            "setup.fixtures_s": statistics.median(_all(both, "fixtures_s")),
            "trace.overhead_ratio": sum(r["wall"] for r in traced) / sum(r["wall"] for r in plain),
            "refused_ratio": outcome(both)["refused_ratio"],
            **{f"verify_{s}_s": suites.get(f"verify_{s}_s", 0.0) for s in VERIFY_SUITES},
        }
    )
    extra = {
        **outcome(both),
        "rounds": TRACE_ROUNDS,
        "spans_kept": total["spans"],
        "spans_dropped": total["dropped"],
        "spans_file": str(spans_path.relative_to(ROOT)),
        "calls": dict(total["calls"]),
    }
    return metrics, extra


PER_LAYER_UNITS = {
    **{k: unit for k, (_, unit) in tracing.layer_metrics(tracing.merge([])).items()},
    "setup.import_s": "s",
    "setup.fixtures_s": "s",
    "trace.overhead_ratio": "ratio",
    "refused_ratio": "ratio",
    **{f"verify_{s}_s": "s" for s in VERIFY_SUITES},
}


def provenance(seed: int) -> dict:
    sha = dirty = None
    if (ROOT / ".git").exists():
        try:
            git = ["git", "-C", str(ROOT)]
            sha = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=30).stdout.strip() or None
            dirty = bool(subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                        text=True, timeout=30).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "git_sha": sha,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": seed,
        "heldout_seed": HELDOUT_SEED,
        "import_path": str(ROOT / "src" / "pericat" / "__init__.py"),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    if trace:
        metrics, extra = measure_traced(workload, seed)
        units = PER_LAYER_UNITS
    else:
        metrics, extra = measure(workload, seed, seconds)
        units = E2E_UNITS
    record = {
        "workload": workload,
        "trace": int(trace),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        **extra,
        **provenance(seed),
    }
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8"
    )
    return record


def print_table(record: dict) -> None:
    """All 13 end-to-end metrics, declared or not, by name and unit."""
    m = {k: v["value"] for k, v in record["metrics"].items()}
    rows = [(k, m[k], E2E_UNITS[k]) for k in E2E_UNITS]
    rows += [("failed_ratio", record["failed_ratio"], "ratio"),
             ("refused_ratio", record["refused_ratio"], "ratio")]
    rows += [(f"verify_{s}_s", record.get(f"verify_{s}_s"), "s") for s in VERIFY_SUITES]
    print(f"== {record['workload']} (seed {record['seed']}, {record['rounds']} rounds, "
          f"{record['latency_samples']} latency samples)")
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<18} {shown:>12} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize or os.environ.get("PYTHONOPTIMIZE"):
        print("error: refusing to run under python -O / PYTHONOPTIMIZE: the asserts "
              "in pericat are checks the timed program must keep", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "pericat" / "__init__.py").is_file():
        print(f"error: no pericat sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for record in records:
        print(json.dumps(record))
        if not args.trace:
            print_table(record)
        for failure in record["failures"]:
            print(f"FAILED {record['workload']}: {failure}", file=sys.stderr)
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(records) == 1:
        result["metrics"] = records[0]["metrics"]
    else:
        result["workloads"] = {r["workload"]: r["metrics"] for r in records}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
