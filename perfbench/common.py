"""Shared pieces of the benchmark: the reference loop, quantiles, paths.

Nothing here imports ``repro``: the parent process (``run.py``) uses
this module before it knows whether the program is present at all.

The reference loop is the benchmark's own yardstick for the host's
speed.  Every reported time is ``wall * C0 / c``, where ``c`` is the
reference loop's time measured next to that operation and ``C0`` is the
loop's time on the reference machine, so a run on a slowed host (steal
time, cache contention from neighbours) reads the same as a run on a
quiet one.  The loop is pure Python, allocation- and dict-heavy like
the counters, in two parts: a table of small dicts (interpreter bound)
and a pointer chase through a 4 MiB array (memory-latency bound).  Host
contention slows the two kinds of work differently, the counters' ops
are a mix of both, and the mix tracked them more closely than either
part alone.  It runs with the cyclic garbage collector off: a
collection inside it would scan the whole heap, and heap size is
something a program change moves.  Everything it allocates is freed
before the collector comes back on, so it leaves no pending collection
work to the operation that follows.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import statistics
import sys
import time
from array import array

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

WORKLOADS = ("pact-prime", "exact-cc", "serve-mixed")

#: Seconds one reference loop takes on the reference machine (its
#: typical time on the 2-vCPU x86-64 cloud VM, Python 3.11, the
#: benchmark was built on).  A constant, so normalised times keep the
#: unit "seconds on the reference host".
C0 = 0.0200

#: Ops whose (op id, answer) pairs and work counts enter the digests.
#: Every run completes at least this many, whatever the host speed.
DIGEST_OPS = 16


def _wide_table(iterations: int) -> int:
    # A ~1000-row table of small dicts: a working set beyond L2.
    table: dict[int, list] = {}
    acc = 0
    for i in range(iterations):
        key = (i * 7919) % 1009
        row = table.get(key)
        if row is None:
            row = table[key] = [key, str(key), {}]
        slots = row[2]
        slots[i & 31] = (i, acc)
        acc = (acc + len(row[1]) + i) & 0xFFFF
        if len(slots) > 24:
            row[2] = {}
    return acc


_CHAIN_BITS = 20
_chain: array | None = None


def _pointer_chase(steps: int) -> int:
    # Follow a pseudo-random full-period chain through a 4 MiB array:
    # memory-latency bound, where the table part is interpreter bound.
    global _chain
    if _chain is None:
        mask = (1 << _CHAIN_BITS) - 1
        _chain = array("I", ((i * 1103515245 + 12345) & mask
                             for i in range(1 << _CHAIN_BITS)))
    chain = _chain
    index = acc = 0
    for _ in range(steps):
        index = chain[index]
        acc += index
    return acc


def reference_seconds() -> float:
    """Time one pass of the fixed reference loop (GC off inside)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        _pointer_chase(0)  # builds the chain once per process
        start = time.perf_counter()
        _wide_table(15_000)
        _pointer_chase(40_000)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def normalised(wall: float, c_before: float, c_after: float) -> float:
    """``wall`` in reference-host seconds, against the mean of the
    reference times taken right before and right after it."""
    return wall * C0 / ((c_before + c_after) / 2.0)


def p50(values) -> float:
    return statistics.median(values) if values else 0.0


def p90(values) -> float:
    """The 90th percentile (``statistics.quantiles``' default method)."""
    values = list(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[8]


def read_vm_hwm_kb(pid: int | str = "self") -> int:
    """Peak resident set size of a process since its last reset."""
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("VmHWM missing from /proc status")


def reset_vm_hwm(pid: int | str = "self") -> None:
    """Reset a process's RSS high-water mark to its current RSS."""
    with open(f"/proc/{pid}/clear_refs", "w") as handle:
        handle.write("5")


def child_env(hash_seed: int) -> dict:
    """Environment of a child process: the program on the path and a
    fixed string-hash seed."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


def child_args() -> argparse.Namespace:
    """The command line ``run.py`` gives a workload child process."""
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--role", choices=("probe", "check", "main"),
                        required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    return parser.parse_args()


def announce_ready(c_ready: float) -> None:
    """Tell the parent set-up is done (its clock stops on this line)."""
    sys.stdout.write(f"READY {c_ready!r}\n")
    sys.stdout.flush()


def write_json(path: pathlib.Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, sort_keys=True))
    tmp.replace(path)
