"""SaturatingCounter (section III-B).

Enumerates solutions of the formula in the solver's current frame,
projected onto S, by blocking each projected model, until either the
threshold is reached (the cell is *saturated*, returned as
:data:`SATURATED`) or the cell is exhausted (exact cell count returned).
Each blocking clause backjumps instead of restarting the search
(:meth:`repro.smt.solver.SmtSolver.block_model`), so a model costs only
the search its blocking clause forces.

Blocking clauses are confined to a nested frame so the cell's parent
formula is untouched afterwards — this is pact's incremental-solving
discipline (section III-F).
"""

from __future__ import annotations

import threading

from repro.smt.solver import SmtSolver
from repro.smt.terms import Term
from repro.utils.deadline import Deadline


class _Saturated:
    """Singleton marker for "cell has >= thresh solutions" (the paper's T)."""

    def __repr__(self) -> str:
        return "SATURATED"


SATURATED = _Saturated()


class CallCounter:
    """Counts oracle calls for the O(log |S|) measurement (section III-D).

    Updates are atomic: one counter may be shared across the thread
    backend of :mod:`repro.engine.pool` (a bare ``+=`` is a
    read-modify-write that drops increments under concurrency).  The
    counter pickles without its lock, so it still crosses process
    boundaries freely.
    """

    def __init__(self):
        self.solver_calls = 0
        self.sat_answers = 0
        self._lock = threading.Lock()

    def record(self, is_sat: bool) -> None:
        with self._lock:
            self.solver_calls += 1
            if is_sat:
                self.sat_answers += 1

    def merge(self, solver_calls: int, sat_answers: int) -> None:
        """Fold a worker's per-iteration totals in, atomically (the join
        step of the fan-out's per-worker counters)."""
        with self._lock:
            self.solver_calls += solver_calls
            self.sat_answers += sat_answers

    def __getstate__(self):
        return {"solver_calls": self.solver_calls,
                "sat_answers": self.sat_answers}

    def __setstate__(self, state):
        self.solver_calls = state["solver_calls"]
        self.sat_answers = state["sat_answers"]
        self._lock = threading.Lock()


def saturating_count(solver: SmtSolver, projection: list[Term],
                     thresh: int, deadline: Deadline,
                     calls: CallCounter):
    """Count projected solutions in the current frame, saturating at
    ``thresh``.  Returns an int < thresh, or :data:`SATURATED`."""
    bits = [lit for var in projection for lit in solver.ensure_bits(var)]
    solver.push()
    try:
        for count in range(thresh):
            deadline.check()
            is_sat = solver.check(deadline)
            calls.record(is_sat)
            if not is_sat:
                return count
            if count + 1 < thresh:
                solver.block_model(bits)
        return SATURATED
    finally:
        solver.pop()
