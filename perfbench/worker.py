"""One round of one workload, in a fresh single-threaded process.

Reads a JSON request on stdin: ``{"workload", "items", "trace",
"spans_path"}``.  Imports pericat from the checkout's ``src/`` (timing the
import and ``load_families()`` as set-up), builds the inputs, runs every
item in a closed loop with one client (timed), then checks every answer
outside the timed phase.  Prints one JSON object on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPAN_CAP = 5000


def peak_rss_mb() -> float:
    """Peak RSS of this process's own address space.  ``ru_maxrss`` would
    also count the parent's pages, which Linux carries over into the
    child's high-water mark when the child execs."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main() -> int:
    if sys.flags.optimize:
        print("error: refusing to run under python -O", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import pericat
    import pericat.cli  # noqa: F401  (the whole package, as the CLI loads it)

    t1 = time.perf_counter()
    from pericat.pe3.tables import load_families

    load_families()
    t2 = time.perf_counter()
    ready = time.monotonic()

    import tracing
    import workloads

    request = json.load(sys.stdin)
    workload = workloads.WORKLOADS[request["workload"]]
    args = [workload.prepare(item) for item in request["items"]]
    tracer = None
    if request["trace"]:
        tracer = tracing.Tracer(tracing.default_hooks(workloads.bench_weakly_typical), SPAN_CAP)
        tracer.install()

    answers, latencies, errors = [], [], {}
    c0, w0 = time.process_time(), time.perf_counter()
    for i, a in enumerate(args):
        if tracer:
            tracer.item = i
        start = time.perf_counter()
        try:
            answers.append(workload.execute(a))
        except Exception as exc:  # an unexpected error fails the item
            answers.append(None)
            errors[i] = f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - start)
    wall, cpu = time.perf_counter() - w0, time.process_time() - c0
    rss_mb = peak_rss_mb()

    summary = None
    if tracer:
        tracer.uninstall()
        tracer.write_spans(request["spans_path"])
        summary = tracer.summary()

    statuses, failures = [], []
    for i, (a, answer) in enumerate(zip(args, answers)):
        if i in errors:
            status, detail = "failed", errors[i]
        else:
            try:
                status, detail = workload.check(a, answer)
            except Exception as exc:
                status, detail = "failed", f"checker raised {type(exc).__name__}: {exc}"
        statuses.append(status)
        if status == "failed":
            failures.append(f"item {i}: {detail}")

    print(
        json.dumps(
            {
                "import_path": pericat.__file__,
                "ready": ready,
                "import_s": t1 - t0,
                "fixtures_s": t2 - t1,
                "wall_s": wall,
                "cpu_s": cpu,
                "rss_mb": rss_mb,
                "latencies": latencies,
                "statuses": statuses,
                "failures": failures[:5],
                "trace": summary,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
