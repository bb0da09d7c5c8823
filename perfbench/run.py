"""Run one workload of the repository benchmark and print its result.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep_serial --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with the program unmodified;
``--trace 1`` runs the same workload with spans around each layer and
prints the per-layer metrics instead.  The last line of standard output is
the result object ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the full report (host stamp, health counts, raw samples and,
when traced, the per-layer self-time table).  Both are also written under
``.perfbench_out/`` at the checkout root, with the spans as JSON lines.

The program is imported from the checkout's ``src/``; without it the
benchmark exits with status 2 before measuring anything.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("sweep_serial", "sweep_durable", "sweep_cluster", "service_tenants")

#: What the report keeps of a run whose oracle check failed.
FAILED_RUN_KEYS = ("correct", "mismatch", "attempted", "failed", "health")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _metric_units(kind: str):
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    args = _parse(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no program source at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    os.makedirs(OUT_DIR, exist_ok=True)

    from host import Health, host_stamp, peak_rss_mb
    from spans import Tracer

    run_id = f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    tracer = Tracer(run_id)
    host = host_stamp(ROOT, OUT_DIR)
    health = Health()
    started = time.perf_counter()
    if args.workload == "service_tenants":
        from tenants import ServiceWorkload

        workload = ServiceWorkload(ROOT, args.seed, OUT_DIR, health)
    else:
        from sweeps import SweepWorkload

        workload = SweepWorkload(args.workload, args.seed, OUT_DIR, health)
    outcome = workload.run(args.seconds, bool(args.trace), tracer)
    outcome["health"] = health.finish(extra_live=getattr(workload, "leftover", 0))
    outcome["peak_rss_mb"] = peak_rss_mb()
    outcome["run_wall_s"] = time.perf_counter() - started

    units = _metric_units("per_layer" if args.trace else "end_to_end")
    if args.trace:
        values = dict(outcome["per_layer"]["metrics"])
        values["health.live_children"] = outcome["health"]["live_children"]
        values["health.new_shm_segments"] = outcome["health"]["new_shm_segments"]
        values["health.teardown_stalls"] = outcome["health"]["teardown_stalls"]
        values["health.recoveries"] = outcome["health"]["recoveries"]
        values["health.failed_ratio"] = outcome["failed"] / max(1, outcome["attempted"])
        missing = sorted(set(units) - set(values))
        for name in missing:
            # A layer this workload never calls into did no work.
            values[name] = 0
        tracer.write_jsonl(os.path.join(OUT_DIR, f"spans-{run_id}.jsonl"))
    else:
        values = dict(outcome["end_to_end"])
        values["peak_rss_mb"] = outcome["peak_rss_mb"]
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    if not outcome["correct"]:
        # A run whose outputs are wrong reports no numbers.
        metrics = {}
        outcome = {key: outcome[key] for key in FAILED_RUN_KEYS}
    report = {"run_id": run_id, "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host, **outcome}
    with open(os.path.join(OUT_DIR, f"report-{run_id}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, default=str)
    print(json.dumps(report, default=str))

    print(json.dumps({"correct": outcome["correct"], "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))
    if not outcome["correct"]:
        print(f"error: oracle check failed: {outcome['mismatch']}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
