"""Child process of the in-process workloads (pact-prime, exact-cc).

Roles:

* ``probe`` — set up (imports, inputs with their references), announce
  ``READY``, exit.  The parent times set-up over several such starts.
* ``check`` — set up, announce, then count the first ``CHECK_OPS`` ops
  and write their answers and work counts (the parent compares them
  with the main run, which has another ``PYTHONHASHSEED``).
* ``main`` — set up, announce, reset the RSS high-water mark, then run
  ops in a closed loop for ``--seconds`` (and on until ``DIGEST_OPS``
  ops are done, at most twice the time) and write every op's record.
  With ``--trace 1`` each op runs twice, once under the layer wrappers
  of :mod:`tracing` and once without, alternating which goes first.

An op is one cold count through the public API: SMT-LIB text in,
``Problem.from_script`` -> ``Session.count`` -> answer out, with the
compile memo reset beforehand as a CLI user pays compile on every call.
"""

from __future__ import annotations

import pathlib
import time

from common import (
    DIGEST_OPS, announce_ready, child_args, normalised, p50,
    read_vm_hwm_kb, reference_seconds, reset_vm_hwm, write_json,
)
from workloads import work_counts

CHECK_OPS = 3


class Runner:
    def __init__(self, workload: str, seed: int):
        from repro.api import CountRequest, Problem, Session
        from repro.compile import reset_compile_memo
        from repro.sat.kernel import TELEMETRY

        import workloads
        build = {"pact-prime": workloads.pact_prime_ops,
                 "exact-cc": workloads.exact_cc_ops}[workload]
        self.ops = build(seed)
        self.requests = [CountRequest(**op.request_fields())
                         for op in self.ops]
        self.session = Session()
        self._problem = Problem
        self._reset = reset_compile_memo
        self._telemetry = TELEMETRY

    def run(self, index: int) -> dict:
        op = self.ops[index % len(self.ops)]
        request = self.requests[index % len(self.ops)]
        self._reset()
        before = self._telemetry.snapshot()
        start = time.perf_counter()
        problem = self._problem.from_script(op.script, name=op.name)
        response = self.session.count(problem, request)
        end = time.perf_counter()
        after = self._telemetry.snapshot()
        return {"index": index, "op": op.op_id, "start": start,
                "wall": end - start, "status": str(response.status),
                "estimate": response.estimate,
                "estimates": list(response.estimates),
                "ok": response.solved and op.check(response.estimate),
                "work": work_counts(response.counter, response.solver_calls,
                                    response.detail, before, after)}


def main_loop(runner: Runner, seconds: float, c_ready: float) -> list:
    records = []
    c_before = c_ready
    begin = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - begin
        if elapsed >= seconds and (len(records) >= DIGEST_OPS
                                   or elapsed >= 2 * seconds):
            break
        record = runner.run(index)
        c_after = reference_seconds()
        record.update(c_before=c_before, c_after=c_after)
        records.append(record)
        c_before = c_after
        index += 1
    return records


def traced_loop(runner: Runner, seconds: float, c_ready: float,
                trace_path: pathlib.Path) -> tuple[list, dict]:
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    records = []
    windows = {}
    c_before = c_ready
    begin = time.perf_counter()
    index = 0
    try:
        while True:
            elapsed = time.perf_counter() - begin
            if elapsed >= seconds and (index >= DIGEST_OPS
                                       or elapsed >= 2 * seconds):
                break
            for traced in ((False, True) if index % 2 == 0
                           else (True, False)):
                tracer.enabled = traced
                tracer.op = index
                record = runner.run(index)
                tracer.enabled = False
                c_after = reference_seconds()
                record.update(c_before=c_before, c_after=c_after,
                              traced=traced)
                if traced:
                    windows[index] = (record["start"],
                                      record["start"] + record["wall"])
                records.append(record)
                c_before = c_after
            index += 1
    finally:
        tracer.uninstall()
    tracer.write_chrome_trace(trace_path, windows)
    return records, layer_metrics(tracer, records)


def layer_metrics(tracer, records: list) -> dict:
    """Per-layer metrics of the traced ops (see README.md)."""
    per_op = tracer.per_op()
    traced = [record for record in records if record.get("traced")]
    plain = [record for record in records if not record.get("traced")]

    def factor(record) -> float:
        return normalised(1.0, record["c_before"], record["c_after"])

    def span(record, kind: str, name: str) -> float:
        return per_op.get(record["index"], {}).get(kind, {}).get(name, 0)

    def self_s(name):
        return p50([span(r, "self", name) * factor(r) for r in traced])

    def calls(name):
        return p50([span(r, "calls", name) for r in traced])

    def compile_count(key):
        return p50([span(r, "counters", key) for r in traced])

    def work(key):
        return p50([r["work"].get(key, 0) for r in traced])

    def total(values):
        return float(sum(values))

    walls = total(r["wall"] * factor(r) for r in traced)
    check_total = total(span(r, "self", "sat.check") * factor(r)
                        for r in traced)
    closure_total = total(span(r, "total", "count_exact.closure")
                          * factor(r) for r in traced)
    props = total(r["work"].get("pact.propagations", 0) for r in traced)
    components = total(r["work"].get("cc.components", 0) for r in traced)
    hits = total(r["work"].get("cc.cache_hits", 0) for r in traced)
    covered = total(per_op.get(r["index"], {}).get("covered", 0.0)
                    for r in traced)
    raw_walls = total(r["wall"] for r in traced)
    latencies = {flag: [normalised(r["wall"], r["c_before"], r["c_after"])
                        for r in records if bool(r.get("traced")) == flag]
                 for flag in (False, True)}
    return {
        "smt.parse_s": self_s("smt.parse"),
        "smt.lra_check_s": self_s("smt.lra_check"),
        "smt.lra_checks": calls("smt.lra_check"),
        "compile.s": self_s("compile"),
        "compile.simplify_s": self_s("compile.simplify"),
        "compile.clauses_raw": compile_count("clauses_raw"),
        "compile.clauses_out": compile_count("clauses_out"),
        "compile.vars_out": compile_count("vars_out"),
        "core.hash_encode_s": self_s("core.hash_encode"),
        "core.hash_encodes": calls("core.hash_encode"),
        "core.pact_self_s": self_s("core.pact_count"),
        "core.solver_calls": work("solver_calls"),
        "sat.check_s": self_s("sat.check"),
        "sat.check_calls": calls("sat.check"),
        "sat.propagations": work("pact.propagations"),
        "sat.conflicts": work("pact.conflicts"),
        "sat.decisions": work("pact.decisions"),
        "sat.props_per_s": props / check_total if check_total else 0.0,
        "count_exact.closure_s": self_s("count_exact.closure"),
        "count_exact.closure_share": closure_total / walls if walls else 0.0,
        "count_exact.search_s": self_s("count_exact.search"),
        "count_exact.decisions": work("cc.decisions"),
        "count_exact.components": work("cc.components"),
        "count_exact.cache_hits": work("cc.cache_hits"),
        "count_exact.cache_hit_ratio": hits / components if components
        else 0.0,
        "api.session_self_s": self_s("api.session"),
        "trace.unattributed_share": (raw_walls - covered) / raw_walls
        if raw_walls else 0.0,
        "trace.overhead": (p50(latencies[True]) / p50(latencies[False])
                           if latencies[False] else 0.0),
        "trace.ops": len(traced),
        "calib.ref_s": p50([r["c_after"] for r in records]),
        "raw.latency_s_p50": p50([r["wall"] for r in plain]),
    }


def main() -> int:
    args = child_args()
    out = args.out

    runner = Runner(args.workload, args.seed)
    if args.role == "main":
        reset_vm_hwm()
    c_ready = reference_seconds()
    announce_ready(c_ready)
    if args.role == "probe":
        return 0
    if args.role == "check":
        write_json(out, {"records": [runner.run(index)
                                     for index in range(CHECK_OPS)]})
        return 0
    document = {"c_ready": c_ready}
    if args.trace:
        document["records"], document["layers"] = traced_loop(
            runner, args.seconds, c_ready, out.with_suffix(".trace.json"))
    else:
        document["records"] = main_loop(runner, args.seconds, c_ready)
        document["hwm_kb"] = read_vm_hwm_kb()
    write_json(out, document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
