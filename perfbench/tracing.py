"""Spans around the program's public layer entry points (traced runs).

The benchmark's own code installs the wrappers; the program is not
changed.  Each wrapped call records a span ``[name, start, end, parent,
op]`` in memory; spans of one op share the op id.  A layer's self time
is its span's duration minus its child spans.  At exit the spans are
written as Chrome trace-event JSON (the ``"X"`` complete-event form),
which any trace viewer that reads that public format opens.

Wrapped entry points (attribute patched -> span name):

=================================================  =====================
``repro.api.problem.Problem.from_script``          ``smt.parse``
``repro.smt.theories.lra.theory.LraTheory.check``  ``smt.lra_check``
``repro.compile.memo.compile_problem``             ``compile``
``repro.compile.pipeline.run_stages``              ``compile.simplify``
``repro.core.hashes.HashConstraint.assert_into``   ``core.hash_encode``
``repro.api.registry.pact_count``                  ``core.pact_count``
``repro.smt.solver.SmtSolver.check``               ``sat.check``
``repro.api.registry.cc_count``                    ``count_exact.cc_count``
``repro.count_exact.counter.lra_closure``          ``count_exact.closure``
``repro.count_exact.counter.count_snapshot``       ``count_exact.search``
``repro.api.session.Session.count``                ``api.session``
=================================================  =====================

Names are patched where the caller looks them up (``compile_problem``
in the memo module that imported it, ``lra_closure`` in the counter
module, ...), so every call on the counting path goes through a wrapper.
"""

from __future__ import annotations

import json
import time


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[int, dict] = {}
        self.op: int | None = None
        self.enabled = False
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def wrap(self, fn, name: str, on_result=None):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            span_id = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else None
            record = [name, 0.0, 0.0, parent, tracer.op]
            tracer.spans.append(record)
            tracer._stack.append(span_id)
            record[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                tracer._stack.pop()
            if on_result is not None:
                tracer.counters[span_id] = on_result(result)
            return result

        return traced

    def patch(self, owner, attribute: str, name: str,
              on_result=None) -> None:
        """Replace ``owner.attribute`` (a module function, a method or a
        classmethod) with a traced wrapper."""
        original = owner.__dict__[attribute]
        if isinstance(original, classmethod):
            replacement = classmethod(
                self.wrap(original.__func__, name, on_result))
        else:
            replacement = self.wrap(original, name, on_result)
        setattr(owner, attribute, replacement)
        self._undo.append((owner, attribute, original))

    def install(self) -> None:
        """Patch every layer entry point listed in the module docstring."""
        import repro.api.registry as registry
        import repro.compile.memo as memo
        import repro.compile.pipeline as pipeline
        import repro.count_exact.counter as cc_counter
        from repro.api.problem import Problem
        from repro.api.session import Session
        from repro.core.hashes import HashConstraint
        from repro.smt.solver import SmtSolver
        from repro.smt.theories.lra.theory import LraTheory

        def compile_stats(artifact) -> dict:
            stats = artifact.stats
            return {"clauses_raw": stats.raw_clauses,
                    "clauses_out": stats.clauses, "vars_out": stats.vars}

        self.patch(Problem, "from_script", "smt.parse")
        self.patch(LraTheory, "check", "smt.lra_check")
        self.patch(memo, "compile_problem", "compile", compile_stats)
        self.patch(pipeline, "run_stages", "compile.simplify")
        self.patch(HashConstraint, "assert_into", "core.hash_encode")
        self.patch(registry, "pact_count", "core.pact_count")
        self.patch(SmtSolver, "check", "sat.check")
        self.patch(registry, "cc_count", "count_exact.cc_count")
        self.patch(cc_counter, "lra_closure", "count_exact.closure")
        self.patch(cc_counter, "count_snapshot", "count_exact.search")
        self.patch(Session, "count", "api.session")

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, original = self._undo.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------
    def per_op(self) -> dict[int, dict]:
        """Per op: summed self and inclusive seconds and call count per
        span name, covered seconds (the union of the op's top-level
        spans), and the counters recorded at span exit."""
        children: dict[int, float] = {}
        for record in self.spans:
            parent = record[3]
            if parent is not None:
                children[parent] = (children.get(parent, 0.0)
                                    + record[2] - record[1])
        ops: dict[int, dict] = {}
        for span_id, (name, start, end, parent, op) in enumerate(
                self.spans):
            entry = ops.setdefault(op, {"self": {}, "total": {},
                                        "calls": {}, "covered": 0.0,
                                        "counters": {}})
            self_time = end - start - children.get(span_id, 0.0)
            entry["self"][name] = entry["self"].get(name, 0.0) + self_time
            entry["total"][name] = (entry["total"].get(name, 0.0)
                                    + end - start)
            entry["calls"][name] = entry["calls"].get(name, 0) + 1
            if parent is None:
                entry["covered"] += end - start
            for key, value in self.counters.get(span_id, {}).items():
                entry["counters"][key] = (entry["counters"].get(key, 0)
                                          + value)
        return ops

    def chrome_trace(self, op_windows: dict[int, tuple[float, float]]):
        """The spans (plus one ``op`` span per traced op) as a Chrome
        trace-event document, timestamps in microseconds."""
        origin = min([record[1] for record in self.spans]
                     + [start for start, _end in op_windows.values()],
                     default=0.0)
        events = []
        for op, (start, end) in sorted(op_windows.items()):
            events.append({"name": "op", "cat": "op", "ph": "X",
                           "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "pid": 1, "tid": 1, "args": {"op": op}})
        for span_id, (name, start, end, parent, op) in enumerate(
                self.spans):
            args = {"op": op}
            if parent is not None:
                args["parent"] = self.spans[parent][0]
            args.update(self.counters.get(span_id, {}))
            events.append({"name": name, "cat": name.split(".")[0],
                           "ph": "X", "ts": (start - origin) * 1e6,
                           "dur": (end - start) * 1e6,
                           "pid": 1, "tid": 1, "args": args})
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path, op_windows) -> None:
        path.write_text(json.dumps(self.chrome_trace(op_windows)))
