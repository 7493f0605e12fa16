"""Child process of the serve-mixed workload: the client and its server.

Set-up starts ``python -m repro serve`` on a free port with a fresh
sqlite store and ``--workers`` equal to the CPU count, and waits for a
200 from ``/healthz``.  The timed phase is a closed loop on two
keep-alive connections, one thread each, of sync ``POST /count``
requests following :func:`workloads.serve_plans`: the writer sends
fresh ``pact:xor`` scripts, the reader repeats answered scripts and
sends a fresh ``exact:cc`` one now and then, so store reads run while
counts and store writes run.

The two threads share one interpreter, so the reference loop (which
holds the interpreter lock for its whole run) is serialised by a lock
and the switch interval is shortened: a response that arrives while the
other thread runs the loop is read within a fraction of a millisecond,
not after the default 5 ms.

Roles are those of :mod:`inproc`; ``check`` stops the server and counts
the first fresh scripts in-process instead.
"""

from __future__ import annotations

import http.client
import json
import os
import pathlib
import re
import subprocess
import sys
import threading
import time

from common import (
    OUT, announce_ready, child_args, child_env, p50, read_vm_hwm_kb,
    reference_seconds, reset_vm_hwm, write_json,
)
from workloads import (
    SERVE_XOR, serve_fresh_ops, serve_plans, work_counts,
)

CHECK_OPS = 2
SWITCH_INTERVAL = 0.0002
_METRIC = re.compile(r"^pact_serve_([a-z_]+?)(\{[^}]*\})? (\S+)$")


class Server:
    """A ``pact serve`` subprocess with its own fresh store."""

    def __init__(self, store: pathlib.Path):
        self.store = store
        self._remove_store()
        store.parent.mkdir(parents=True, exist_ok=True)
        workers = len(os.sched_getaffinity(0))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--workers", str(workers), "--cache-dir", str(store),
             "--store", "sqlite"],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            env=child_env(int(os.environ.get("PYTHONHASHSEED", "0"))))
        line = self.process.stdout.readline()
        match = re.search(r"serving on (?:http://)?([\d.]+):(\d+)", line)
        if match is None:
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.host, self.port = match.group(1), int(match.group(2))
        self._wait_healthy()

    def _wait_healthy(self) -> None:
        for _ in range(500):
            try:
                status, _body = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.01)
        raise RuntimeError("server never answered /healthz with 200")

    def get(self, path: str) -> tuple[int, bytes]:
        connection = http.client.HTTPConnection(self.host, self.port,
                                                timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()

    def metrics(self) -> dict[str, float]:
        """``/metrics`` values summed over label sets."""
        _status, body = self.get("/metrics")
        totals: dict[str, float] = {}
        for line in body.decode().splitlines():
            match = _METRIC.match(line)
            if match:
                name = match.group(1)
                totals[name] = totals.get(name, 0.0) + float(match.group(3))
        return totals

    def stop(self) -> None:
        """Drain the server (SIGTERM), wait for it, delete its store."""
        if self.process.poll() is None:
            self.process.terminate()
        try:
            self.process.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        self._remove_store()

    def _remove_store(self) -> None:
        for path in self.store.parent.glob(self.store.name + "*"):
            path.unlink()


WRITER, READER = 0, 1


class Client:
    """Two closed-loop connections following
    :func:`workloads.serve_plans`."""

    def __init__(self, server: Server, fresh, plans, seconds: float,
                 c_ready: float):
        self.server = server
        self.fresh = fresh
        self.bodies = [json.dumps({"script": op.script, "name": op.name,
                                   **op.request_fields()}).encode()
                       for op in fresh]
        self.plans = {WRITER: plans["writer"], READER: plans["reader"]}
        self.seconds = seconds
        self.records: list[dict] = []
        self._c_ready = c_ready
        self._answered: set[int] = set()
        self._state = threading.Condition()
        self._reference = threading.Lock()
        self._end = 0.0

    def _calibrate(self) -> float:
        with self._reference:
            return reference_seconds()

    def _await_answer(self, index: int) -> bool:
        with self._state:
            return self._state.wait_for(
                lambda: index in self._answered
                or time.perf_counter() >= self._end,
                timeout=max(0.0, self._end - time.perf_counter()))

    def _loop(self, connection_id: int) -> None:
        connection = http.client.HTTPConnection(
            self.server.host, self.server.port, timeout=120)
        c_before = self._c_ready if connection_id == WRITER else None
        try:
            for request, (index, fresh) in enumerate(
                    self.plans[connection_id]):
                if time.perf_counter() >= self._end:
                    return
                if not fresh and not (self._await_answer(index)
                                      and index in self._answered):
                    return
                if c_before is None:
                    c_before = self._calibrate()
                start = time.perf_counter()
                connection.request(
                    "POST", "/count", self.bodies[index],
                    {"Content-Type": "application/json"})
                response = connection.getresponse()
                payload = response.read()
                wall = time.perf_counter() - start
                c_after = self._calibrate()
                self._record(connection_id, request, index, fresh,
                             response.status, payload, start, wall,
                             c_before, c_after)
                c_before = c_after
        finally:
            connection.close()

    def _record(self, connection_id, request, index, fresh, status,
                payload, start, wall, c_before, c_after) -> None:
        op = self.fresh[index]
        try:
            document = json.loads(payload)
        except ValueError:
            document = {}
        estimate = document.get("estimate")
        ok = (status == 200 and document.get("status") == "ok"
              and op.check(estimate))
        record = {
            "conn": connection_id, "index": request, "op": index,
            "repeat": not fresh, "http": status,
            "start": start, "wall": wall, "c_before": c_before,
            "c_after": c_after, "status": document.get("status"),
            "estimate": estimate, "cached": bool(document.get("cached")),
            "ok": ok,
            "work": work_counts(op.counter,
                                document.get("solver_calls", 0),
                                document.get("detail", "")),
        }
        with self._state:
            self.records.append(record)
            self._answered.add(index)
            self._state.notify_all()

    def run(self) -> list[dict]:
        sys.setswitchinterval(SWITCH_INTERVAL)
        self._end = time.perf_counter() + self.seconds
        threads = [threading.Thread(target=self._loop, args=(n,))
                   for n in (WRITER, READER)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        self.records.sort(key=lambda record: (record["conn"],
                                              record["index"]))
        return self.records


def layer_metrics(records: list, metrics: dict) -> dict:
    """serve-mixed's per-layer metrics: the server's own ``/metrics``
    against the client's timing, in raw wall seconds.

    Nothing is wrapped in this workload (the in-process layers run in
    the server, which has no span recording), so a traced run sends the
    same requests as an untraced one and ``trace.overhead`` is 1 by
    definition, not a measurement."""
    jobs = metrics.get("latency_seconds_count", 0.0)
    run = metrics.get("latency_seconds_sum", 0.0) / jobs if jobs else 0.0
    client = sum(r["wall"] for r in records) / len(records)
    hits = metrics.get("cache_hits_total", 0.0)
    misses = metrics.get("cache_misses_total", 0.0)
    walls = [r["wall"] for r in records]
    return {
        "serve.run_s": run,
        "serve.overhead_s": client - run,
        "serve.store_hit_ratio": hits / (hits + misses)
        if hits + misses else 0.0,
        "serve.rejects": metrics.get("admission_rejects_total", 0.0),
        "trace.unattributed_share": 1.0 - run / client if client else 0.0,
        "trace.overhead": 1.0,
        "trace.ops": len(records),
        "calib.ref_s": p50([r["c_after"] for r in records]),
        "raw.latency_s_p50": p50(walls),
    }


def write_request_trace(path: pathlib.Path, records: list) -> None:
    """The requests as Chrome trace events, one track per connection
    (their server-side split is in ``/metrics`` only)."""
    origin = min(record["start"] for record in records)
    events = [{"name": "serve.request", "cat": "serve", "ph": "X",
               "ts": (record["start"] - origin) * 1e6,
               "dur": record["wall"] * 1e6, "pid": 1,
               "tid": record["conn"] + 1,
               "args": {"op": record["index"], "script": record["op"],
                        "repeat": record["repeat"],
                        "cached": record["cached"]}}
              for record in records]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms"}))


def check_in_process(fresh) -> list[dict]:
    """The first fresh scripts counted through the library (another
    process, another hash seed) — the work counts the server's answers
    must repeat."""
    from repro.api import CountRequest, Problem, Session
    session = Session()
    records = []
    for op in fresh[:CHECK_OPS] + fresh[SERVE_XOR:SERVE_XOR + CHECK_OPS]:
        response = session.count(Problem.from_script(op.script,
                                                     name=op.name),
                                 CountRequest(**op.request_fields()))
        records.append({"op": op.op_id, "estimate": response.estimate,
                        "ok": response.solved
                        and op.check(response.estimate),
                        "work": work_counts(op.counter,
                                            response.solver_calls,
                                            response.detail)})
    return records


def main() -> int:
    args = child_args()
    out = args.out

    fresh = serve_fresh_ops(args.seed)
    plans = serve_plans(args.seed)
    server = Server(OUT / f"store-{os.getpid()}.sqlite")
    try:
        if args.role == "main":
            reset_vm_hwm(server.process.pid)
        c_ready = reference_seconds()
        announce_ready(c_ready)
        if args.role == "main":
            client = Client(server, fresh, plans, args.seconds, c_ready)
            document = {"c_ready": c_ready, "records": client.run(),
                        "hwm_kb": read_vm_hwm_kb(server.process.pid)}
            if args.trace:
                document["layers"] = layer_metrics(document["records"],
                                                   server.metrics())
                write_request_trace(out.with_suffix(".trace.json"),
                                    document["records"])
    finally:
        server.stop()
    if args.role == "check":
        document = {"records": check_in_process(fresh)}
    if args.role != "probe":
        write_json(out, document)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
