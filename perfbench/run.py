"""The repository benchmark: one workload, one run, one JSON result line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pact-prime --seed 1 --seconds 30 \\
        --trace 0

Workloads: ``pact-prime``, ``exact-cc``, ``serve-mixed`` (see
``workloads.py`` and README.md).  A run starts the workload's child
process three times, each from a fresh interpreter, and times set-up
(process start to ``READY``) on every start:

1. ``check`` (``PYTHONHASHSEED=2``) also counts the first few ops and
   records their answers and work counts;
2. ``probe`` (``PYTHONHASHSEED=3``) only sets up;
3. ``main`` (``PYTHONHASHSEED=1``) runs the timed phase.

The main run's first ops must repeat the check's answers and work counts
exactly; every op's answer must match its independent reference.  The
last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics under ``--trace 0`` and the per-layer
metrics under ``--trace 1``.  The run's records (raw wall times and the
reference-loop times next to them), its digests and, for traced runs,
a Chrome trace land in ``.perfbench/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import threading
import time

from common import (
    DIGEST_OPS, OUT, ROOT, SRC, WORKLOADS, child_env, normalised, p50, p90, reference_seconds, write_json,
)

HERE = ROOT / "perfbench"
ROLES = (("check", 2), ("probe", 3), ("main", 1))


class BenchError(RuntimeError):
    """The run cannot produce a result."""


def metric_units(section: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics
    listed in ``BENCHMARK.json``.  A per-layer metric a workload does
    not run reads 0 (README.md, "Layer map")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def run_child(args, role: str, hash_seed: int, run_dir) -> float:
    """Start one child, return its normalised set-up time, wait for it."""
    script = "serve_client.py" if args.workload == "serve-mixed" \
        else "inproc.py"
    out = run_dir / f"{role}.json"
    out.unlink(missing_ok=True)
    command = [sys.executable, str(HERE / script),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--role", role, "--out", str(out)]
    c_before = reference_seconds()
    start = time.perf_counter()
    process = subprocess.Popen(command, stdout=subprocess.PIPE,
                               stdin=subprocess.DEVNULL, text=True,
                               env=child_env(hash_seed), cwd=ROOT)
    watchdog = threading.Timer(2.5 * args.seconds + 60, process.kill)
    watchdog.start()
    try:
        line = process.stdout.readline()
        setup_wall = time.perf_counter() - start
        process.communicate()
    finally:
        watchdog.cancel()
        if process.poll() is None:
            process.kill()
            process.wait()
    if not line.startswith("READY ") or process.returncode != 0:
        raise BenchError(f"{role} child exited with {process.returncode}")
    return normalised(setup_wall, c_before, float(line.split()[1]))


def digest(items) -> str:
    return hashlib.sha256(
        json.dumps(items, sort_keys=True).encode()).hexdigest()[:16]


def first_by_index(records) -> tuple[dict, bool]:
    """Each (connection, op index)'s first record, and whether every
    repeat of an index (a traced run counts each op twice) agrees."""
    first: dict[tuple, dict] = {}
    agree = True
    for record in records:
        key = (record.get("conn", 0), record["index"])
        seen = first.setdefault(key, record)
        if (seen["estimate"], seen["work"]) != (record["estimate"],
                                                 record["work"]):
            agree = False
    return first, agree


def determinism(workload: str, records, check_records) -> bool:
    """The check child's ops (another hash seed, another process) must
    reproduce the main run's answers and work counts."""
    if workload == "serve-mixed":
        fresh = {record["op"]: record for record in records
                 if not record["repeat"]}
        pairs = [(fresh.get(record["op"]), record)
                 for record in check_records]
    else:
        first, _agree = first_by_index(records)
        pairs = [(first.get((0, index)), record)
                 for index, record in enumerate(check_records)]
    return all(main is not None
               and main["estimate"] == check["estimate"]
               and main["work"] == check["work"]
               for main, check in pairs)


def latency(record: dict) -> float:
    """An op's reported latency in seconds.

    Normalised against the reference loop run next to it, except a
    serve-mixed repeat (a store hit): the hit runs in the server
    process, on the other vCPU than the client's reference loop, and
    next to a running count it mostly waits out the interpreter's
    wall-clock switch interval, so its raw wall time is the steadier
    figure (README.md, "Normalisation").
    """
    if record.get("repeat"):
        return record["wall"]
    return normalised(record["wall"], record["c_before"], record["c_after"])


def end_to_end(document: dict, setups: list) -> dict:
    records = document["records"]
    latencies = [latency(record) for record in records]
    # Closed loops: a connection completes ok-ops / its busy seconds;
    # serve-mixed adds its two connections.
    ops_per_s = 0.0
    for connection in sorted({r.get("conn", 0) for r in records}):
        busy = [(r["ok"], lat) for r, lat in zip(records, latencies)
                if r.get("conn", 0) == connection]
        ops_per_s += (sum(1 for ok, _lat in busy if ok)
                      / sum(lat for _ok, lat in busy))
    return {
        "ops_per_s": ops_per_s,
        "latency_s_p50": p50(latencies),
        "latency_s_p90": p90(latencies),
        "peak_rss_mb": document["hwm_kb"] / 1024.0,
        "setup_s": statistics.median(setups),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        return 2

    run_dir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        setups = [run_child(args, role, hash_seed, run_dir)
                  for role, hash_seed in ROLES]
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    document = json.loads((run_dir / "main.json").read_text())
    check = json.loads((run_dir / "check.json").read_text())
    records = document["records"]

    first, consistent = first_by_index(records)
    prefix = [first[key] for key in sorted(first) if key[1] < DIGEST_OPS]
    answers = digest([[r.get("conn", 0), r["index"], r["op"], r["estimate"]]
                      for r in prefix])
    work = digest([[r.get("conn", 0), r["index"], r["work"]]
                   for r in prefix])
    deterministic = determinism(args.workload, records, check["records"])
    failed = sum(1 for record in records if not record["ok"])
    correct = failed == 0 and consistent and deterministic

    if args.trace:
        units = metric_units("per_layer")
        layers = document["layers"]
        values = {name: float(layers.get(name, 0.0)) for name in units}
    else:
        units = metric_units("end_to_end")
        values = end_to_end(document, setups)
    summary = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "ops": len(records),
        "failed": failed, "answer_digest": answers, "work_digest": work,
        "digest_ops": len(prefix),
        "deterministic": deterministic, "consistent": consistent,
        "setup_samples_s": setups, "metrics": values,
        "raw_latency_s_p50": p50([r["wall"] for r in records]),
        "reference_s_p50": p50([r["c_after"] for r in records]),
        "zero_iteration_estimates": sum(
            1 for r in records if 0 in r.get("estimates", ())),
    }
    write_json(run_dir / "summary.json", summary)
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"ops={len(records)} failed={failed} answers={answers} "
          f"work={work} (over {len(prefix)} ops) "
          f"deterministic={deterministic} consistent={consistent}")
    print(json.dumps({
        "correct": correct, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
