"""One Boolean-constraint-propagation kernel, two search drivers.

Before this module existed the repo carried two independent BCP engines
over the same clause database: the CDCL machinery inside
``sat/solver.py`` (watched literals + native XOR rows, driving pact and
cdm) and the occurrence-indexed trail propagation of
``sat/components.py`` (driving the ``exact:cc`` component-caching
counter).  Every kernel improvement had to be written twice — or, in
practice, was written once and the other counter never saw it.

This module folds both into one kernel with pluggable *search drivers*:

* **Shared storage** — :class:`SatSnapshot` (the compile pipeline's
  interchange image) and :class:`ClauseDB` (verbatim clause/XOR storage
  with the canonical occurrence index, residual extraction and
  connected-component splitting).  One clause DB format feeds both
  drivers.
* **:class:`PropagationKernel`** — the watcher-side state machine:
  assignment trail, two-watched-literal + XOR propagation, first-UIP
  conflict analysis with clause minimisation, push/pop frames with safe
  learnt-clause retention, snapshot/clone seeding.
* **:class:`CdclDriver`** — the CDCL search policy (VSIDS decisions,
  Luby or Glucose-EMA restarts, LBD- or activity-ranked DB reduction
  with glue protection) over the kernel's blocking-literal watchers.
  ``repro.sat.solver.SatSolver`` *is* this driver; its public API is
  unchanged and every policy combination returns the same verdicts.
* **:class:`ComponentDriver`** — the component-splitting DPLL driver
  used by ``exact:cc``: kernel BCP over the occurrence index with
  reason tracking, *in-component conflict learning* (conflicts resolve
  back to the decision literals that caused them; the learnt clause —
  entailed by the whole formula — prunes sibling branches), and
  byte-identical ``residual``/``split`` semantics so component cache
  keys do not shift.

Learnt-clause sharing and counting soundness: a clause learnt by
resolution from original constraints (and root units) is entailed by
the *global* formula, so using it to prune inside one component is
exact whenever every other unresolved component is satisfiable.  When a
sibling component turns out unsatisfiable the branch product is zero
either way, but counts cached for its earlier siblings may have been
clipped by cross-component implications — the counter purges every
cache entry inserted during such a scope (see
``repro.count_exact.counter``; soundness argument in DESIGN.md §10).

Assignment conventions: the CDCL side stores ``TRUE/FALSE/UNASSIGNED``
per variable (:mod:`repro.sat.types`); the component side keeps the
counter convention ``values[var] in (+1, -1, 0)`` (``TRUE_V`` /
``FALSE_V`` / ``UNSET_V``) that the residual signatures are defined
over.  Literals are DIMACS-style signed ints everywhere.
"""

from __future__ import annotations

import heapq
import threading
from typing import Iterable, NamedTuple

from repro.errors import ResourceBudgetError
from repro.sat.clause import Clause
from repro.sat.types import FALSE, TRUE, UNASSIGNED, lit_index
from repro.sat.xor_engine import XorEngine
from repro.utils.deadline import Deadline
from repro.utils.luby import luby

__all__ = [
    "ClauseDB", "CdclDriver", "Component", "ComponentDriver",
    "GLUE_LBD", "KernelTelemetry", "PropagationKernel",
    "RESTART_POLICIES", "SatSnapshot", "TELEMETRY",
    "FALSE_V", "TRUE_V", "UNSET_V", "build_driver", "presolve_lemmas",
]

_RESTART_BASE = 128
_ACTIVITY_RESCALE = 1e100
_DEADLINE_CHECK_INTERVAL = 64  # conflicts between deadline polls

#: Learnt clauses at or below this LBD ("glue" clauses, Audemard &
#: Simon 2009) are never deleted by the LBD reduction policy.
GLUE_LBD = 2
#: Selectable restart policies (:attr:`PropagationKernel.restart_policy`).
RESTART_POLICIES = ("luby", "glucose")
# Glucose-EMA adaptive restarts: restart once the fast LBD average
# exceeds the slow one by the margin, but never before the minimum
# conflict count (each restart must buy at least that much new work).
_GLUCOSE_MIN_CONFLICTS = 50
_GLUCOSE_FAST_WEIGHT = 1.0 / 32.0
_GLUCOSE_SLOW_WEIGHT = 1.0 / 4096.0
_GLUCOSE_MARGIN = 1.25

TRUE_V = 1
FALSE_V = -1
UNSET_V = 0


# ======================================================================
# shared storage
# ======================================================================
class SatSnapshot:
    """An immutable image of a root-frame solver state.

    Captured by :meth:`PropagationKernel.snapshot` and restored by
    :meth:`PropagationKernel.clone_from`: the variable count, the root
    clause database, the level-0 trail (units) and the native XOR rows.
    Learnt clauses are *not* part of the image — a snapshot identifies a
    formula, not a search state — so cloning is cheap and deterministic.
    The compile pipeline (:mod:`repro.compile`) stores one of these per
    compiled problem and seeds every iteration's solver from it instead
    of re-running preprocessing + bit-blasting.  It is also the common
    input both search drivers load from.
    """

    __slots__ = ("num_vars", "clauses", "units", "xors", "ok")

    def __init__(self, num_vars: int,
                 clauses: tuple[tuple[int, ...], ...],
                 units: tuple[int, ...],
                 xors: tuple[tuple[tuple[int, ...], bool], ...],
                 ok: bool = True):
        self.num_vars = num_vars
        self.clauses = clauses
        self.units = units
        self.xors = xors
        self.ok = ok

    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__}

    def __setstate__(self, state):
        for name, value in state.items():
            setattr(self, name, value)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SatSnapshot):
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in self.__slots__)

    def __repr__(self) -> str:
        return (f"SatSnapshot(vars={self.num_vars}, "
                f"clauses={len(self.clauses)}, units={len(self.units)}, "
                f"xors={len(self.xors)}, ok={self.ok})")


class Component(NamedTuple):
    """One connected component: its unassigned variables and the active
    constraint ids joining them (both sorted tuples)."""

    variables: tuple[int, ...]
    constraints: tuple[int, ...]


class ClauseDB:
    """The kernel's occurrence-indexed view of a CNF + XOR clause DB.

    ``clauses`` are literal tuples stored *verbatim* (no simplification
    — residual signatures are defined over exactly this storage);
    ``xors`` are ``(variables, rhs)`` parity rows.  Constraint ids are
    positional: clause ``i`` is id ``i``, XOR row ``j`` is id
    ``len(clauses) + j``.  The DB itself is immutable — all search
    state lives in the driver's ``values`` array and trail.

    This class was ``repro.sat.components.ConstraintGraph`` before the
    kernel unification; that name remains importable as an alias and
    every method here keeps its exact semantics (occurrence lists,
    propagation fixpoint, residual canonical forms, component order) so
    cache keys built on them are unchanged.
    """

    __slots__ = ("num_vars", "clauses", "xors", "num_clauses", "occ")

    def __init__(self, num_vars: int, clauses, xors=()):
        self.num_vars = num_vars
        self.clauses = [tuple(clause) for clause in clauses]
        self.xors = [(tuple(variables), bool(rhs))
                     for variables, rhs in xors]
        self.num_clauses = len(self.clauses)
        occ: list[list[int]] = [[] for _ in range(num_vars + 1)]
        # Dedupe by *variable* (a clause holding both polarities of v
        # must register once, not twice) and sort so occurrence lists —
        # which feed component traversal order and therefore residual
        # signatures — are canonical regardless of set iteration order.
        for index, clause in enumerate(self.clauses):
            for var in sorted({abs(lit) for lit in clause}):
                occ[var].append(index)
        for index, (variables, _rhs) in enumerate(self.xors):
            cid = self.num_clauses + index
            for var in sorted(set(variables)):
                occ[var].append(cid)
        self.occ = [tuple(ids) for ids in occ]

    @classmethod
    def from_snapshot(cls, snapshot, extra_clauses=()) -> "ClauseDB":
        """Build from a :class:`SatSnapshot` (root units are *not*
        folded in — the caller asserts them on its own values array so
        they go through the same propagation path)."""
        return cls(snapshot.num_vars,
                   list(snapshot.clauses) + [list(c) for c in extra_clauses],
                   snapshot.xors)

    def __len__(self) -> int:
        return self.num_clauses + len(self.xors)

    # ------------------------------------------------------------------
    # assignment + propagation (driver-less compatibility face)
    # ------------------------------------------------------------------
    @staticmethod
    def assign(values, trail: list[int], lit: int) -> bool:
        """Assert ``lit``; False on contradiction with the current value."""
        var = lit if lit > 0 else -lit
        want = TRUE_V if lit > 0 else FALSE_V
        current = values[var]
        if current != UNSET_V:
            return current == want
        values[var] = want
        trail.append(var)
        return True

    def propagate(self, values, trail: list[int], start: int) -> bool:
        """Unit-propagate from ``trail[start:]`` to fixpoint.

        Implied assignments are appended to ``trail``; returns False on
        conflict (the caller unwinds the trail either way).  After a
        True return every unsatisfied clause and every open XOR row has
        at least two unassigned variables.

        This is the reason-less face of the kernel BCP, kept for
        callers that only need a fixpoint (tests, one-shot checks);
        :class:`ComponentDriver` runs the same loop with reason
        recording and learnt-clause propagation layered on.
        """
        head = start
        num_clauses = self.num_clauses
        clauses = self.clauses
        xors = self.xors
        occ = self.occ
        while head < len(trail):
            var = trail[head]
            head += 1
            for cid in occ[var]:
                if cid < num_clauses:
                    unit = 0
                    open_lits = 0
                    satisfied = False
                    for lit in clauses[cid]:
                        value = values[lit] if lit > 0 else -values[-lit]
                        if value == TRUE_V:
                            satisfied = True
                            break
                        if value == UNSET_V:
                            open_lits += 1
                            if open_lits > 1:
                                break
                            unit = lit
                    if satisfied or open_lits > 1:
                        continue
                    if open_lits == 0:
                        return False
                    if not self.assign(values, trail, unit):
                        return False
                else:
                    variables, rhs = xors[cid - num_clauses]
                    parity = rhs
                    open_var = 0
                    open_count = 0
                    for v in variables:
                        value = values[v]
                        if value == UNSET_V:
                            open_count += 1
                            if open_count > 1:
                                break
                            open_var = v
                        elif value == TRUE_V:
                            parity = not parity
                    if open_count > 1:
                        continue
                    if open_count == 0:
                        if parity:
                            return False
                        continue
                    lit = open_var if parity else -open_var
                    if not self.assign(values, trail, lit):
                        return False
        return True

    # ------------------------------------------------------------------
    # residuals
    # ------------------------------------------------------------------
    def residual(self, values, cid: int):
        """The canonical residual of constraint ``cid`` under ``values``.

        ``None`` when the constraint is inactive (clause satisfied; XOR
        row fully assigned — propagation guarantees its parity holds).
        Otherwise a clause yields ``("c", literals)`` (its unassigned
        literals, sorted) and an XOR row yields ``("x", variables,
        parity)`` with the still-required parity folded over the
        assigned variables.  The leading tags keep residuals mutually
        comparable so signatures can sort them.
        """
        if cid < self.num_clauses:
            open_lits = []
            for lit in self.clauses[cid]:
                value = values[lit] if lit > 0 else -values[-lit]
                if value == TRUE_V:
                    return None
                if value == UNSET_V:
                    open_lits.append(lit)
            return ("c", tuple(sorted(open_lits)))
        variables, rhs = self.xors[cid - self.num_clauses]
        parity = rhs
        open_vars = []
        for var in variables:
            value = values[var]
            if value == UNSET_V:
                open_vars.append(var)
            elif value == TRUE_V:
                parity = not parity
        if not open_vars:
            return None
        return ("x", tuple(sorted(open_vars)), parity)

    # ------------------------------------------------------------------
    # component extraction
    # ------------------------------------------------------------------
    def split(self, values, scope) -> tuple[list[Component], list[int]]:
        """Partition the unassigned variables of ``scope`` into connected
        components over the active constraints.

        Returns ``(components, free)``: components sorted by smallest
        member variable, each with its sorted variables and constraint
        ids; ``free`` is the sorted list of unassigned scope variables
        that appear in no active constraint (unconstrained — a counter
        multiplies by 2 per free projection bit and ignores the rest).
        """
        num_clauses = self.num_clauses
        # Lazily computed per-split: cid -> tuple of unassigned vars, or
        # None when the constraint is inactive under ``values``.
        active: dict[int, tuple[int, ...] | None] = {}

        def open_vars(cid: int):
            cached = active.get(cid, False)
            if cached is not False:
                return cached
            if cid < num_clauses:
                result: tuple[int, ...] | None = None
                collected = []
                for lit in self.clauses[cid]:
                    value = values[lit] if lit > 0 else -values[-lit]
                    if value == TRUE_V:
                        break
                    if value == UNSET_V:
                        collected.append(abs(lit))
                else:
                    result = tuple(collected)
            else:
                variables, _rhs = self.xors[cid - num_clauses]
                collected = [v for v in variables if values[v] == UNSET_V]
                result = tuple(collected) if collected else None
            active[cid] = result
            return result

        components: list[Component] = []
        free: list[int] = []
        seen: set[int] = set()
        for root in sorted(scope):
            if values[root] != UNSET_V or root in seen:
                continue
            member_vars: set[int] = set()
            member_cids: set[int] = set()
            queue = [root]
            seen.add(root)
            while queue:
                var = queue.pop()
                member_vars.add(var)
                for cid in self.occ[var]:
                    if cid in member_cids:
                        continue
                    vars_of = open_vars(cid)
                    if vars_of is None:
                        continue
                    member_cids.add(cid)
                    for other in vars_of:
                        if other not in seen:
                            seen.add(other)
                            queue.append(other)
            if member_cids:
                components.append(Component(
                    tuple(sorted(member_vars)),
                    tuple(sorted(member_cids))))
            else:
                free.append(root)
        return components, free


# ======================================================================
# kernel telemetry (process-wide, thread-shared)
# ======================================================================
class KernelTelemetry:
    """Process-wide tally of kernel work across both drivers.

    Shared by every thread that runs a solve or a count, so all writes
    happen under the instance lock; callers merge a whole stats dict
    once per top-level operation (never per propagation) to keep the
    lock off the hot path.  Pickles without its lock so fan-out specs
    that happen to reference it stay process-safe.
    """

    __slots__ = ("_lock", "totals")

    def __init__(self):
        self._lock = threading.Lock()
        self.totals: dict[str, int] = {}

    def merge(self, source: dict, prefix: str = "") -> None:
        """Fold ``source`` counters into the totals (lock-atomic)."""
        with self._lock:
            for key, value in source.items():
                name = prefix + key
                self.totals[name] = self.totals.get(name, 0) + value

    def snapshot(self) -> dict[str, int]:
        """A point-in-time copy of the totals (lock-atomic)."""
        with self._lock:
            return dict(self.totals)

    def __getstate__(self):
        return {"totals": self.snapshot()}

    def __setstate__(self, state):
        self._lock = threading.Lock()
        self.totals = dict(state["totals"])


#: The process-wide kernel telemetry instance.  ``CdclDriver.solve``
#: and ``count_compiled`` merge their per-run stats here.
TELEMETRY = KernelTelemetry()


# ======================================================================
# component-splitting DPLL driver
# ======================================================================
class ComponentDriver:
    """The component-splitting DPLL search driver over a :class:`ClauseDB`.

    Owns the counter-convention assignment state (``values`` in
    ``+1/-1/0``, trail of variables) and runs the kernel BCP with two
    additions over the compatibility face:

    * **reason tracking** — every implied assignment records the
      constraint that forced it (a DB constraint id, or the literal
      tuple of a learnt clause), so conflicts can be analysed;
    * **conflict learning** — a propagation conflict resolves backwards
      through the reasons until only *decision* literals remain.  The
      resulting clause is entailed by the global formula (it is a
      resolution derivative of original constraints, XOR implication
      clauses and root units), is kept in a bounded learnt store, and
      participates in propagation from then on — pruning sibling
      branches whose decisions repeat the same doomed prefix.

    ``split`` and ``residual`` delegate to the :class:`ClauseDB`
    unchanged, and learnt clauses are invisible to both (they are not
    part of the occurrence index), so component signatures are
    byte-identical with the pre-kernel substrate.  Learning defaults on;
    ``learn=False`` reproduces the old driver exactly.
    """

    __slots__ = ("db", "values", "trail", "learn", "max_learnts",
                 "learnts", "_learnt_set", "_reason", "_is_decision",
                 "root_conflict", "conflicts", "learned",
                 "learnt_evicted", "propagations")

    def __init__(self, db: ClauseDB, *, learn: bool = True,
                 max_learnts: int = 512):
        self.db = db
        self.values = [UNSET_V] * (db.num_vars + 1)
        self.trail: list[int] = []
        self.learn = learn
        self.max_learnts = max_learnts
        self.learnts: list[tuple[int, ...]] = []
        self._learnt_set: set[tuple[int, ...]] = set()
        # reason[var]: None for decisions and asserted roots, a
        # constraint id (int) for DB-forced literals, or the literal
        # tuple of the learnt clause that forced it.
        self._reason: list = [None] * (db.num_vars + 1)
        self._is_decision = bytearray(db.num_vars + 1)
        self.root_conflict = False
        self.conflicts = 0
        self.learned = 0
        self.learnt_evicted = 0
        self.propagations = 0

    # ------------------------------------------------------------------
    # assignment
    # ------------------------------------------------------------------
    def _assign(self, lit: int, reason) -> bool:
        """Assert ``lit``; False on contradiction with the current value."""
        var = lit if lit > 0 else -lit
        want = TRUE_V if lit > 0 else FALSE_V
        current = self.values[var]
        if current != UNSET_V:
            return current == want
        self.values[var] = want
        self.trail.append(var)
        self._reason[var] = reason
        return True

    def assert_roots(self, units) -> bool:
        """Assert the snapshot's root units and propagate; False = UNSAT."""
        for lit in units:
            if not self._assign(lit, None):
                return False
        conflict = self._bcp(0)
        if conflict is not None:
            self.root_conflict = True
            return False
        return True

    # ------------------------------------------------------------------
    # kernel BCP with reasons + learnt clauses
    # ------------------------------------------------------------------
    def _bcp(self, start: int) -> tuple[int, ...] | None:
        """Propagate from ``trail[start:]`` to fixpoint.

        Returns ``None`` on success, else the falsified clause as a
        literal tuple (every literal false under ``values``) — an
        entailed clause suitable as the conflict antecedent.  Same
        fixpoint as :meth:`ClauseDB.propagate` on the DB constraints;
        learnt clauses are layered on after each DB-level fixpoint.
        """
        values = self.values
        trail = self.trail
        db = self.db
        clauses = db.clauses
        xors = db.xors
        occ = db.occ
        num_clauses = db.num_clauses
        head = start
        while True:
            while head < len(trail):
                var = trail[head]
                head += 1
                self.propagations += 1
                for cid in occ[var]:
                    if cid < num_clauses:
                        unit = 0
                        open_lits = 0
                        satisfied = False
                        for lit in clauses[cid]:
                            value = (values[lit] if lit > 0
                                     else -values[-lit])
                            if value == TRUE_V:
                                satisfied = True
                                break
                            if value == UNSET_V:
                                open_lits += 1
                                if open_lits > 1:
                                    break
                                unit = lit
                        if satisfied or open_lits > 1:
                            continue
                        if open_lits == 0:
                            return clauses[cid]
                        self._assign(unit, cid)
                    else:
                        variables, rhs = xors[cid - num_clauses]
                        parity = rhs
                        open_var = 0
                        open_count = 0
                        for v in variables:
                            value = values[v]
                            if value == UNSET_V:
                                open_count += 1
                                if open_count > 1:
                                    break
                                open_var = v
                            elif value == TRUE_V:
                                parity = not parity
                        if open_count > 1:
                            continue
                        if open_count == 0:
                            if parity:
                                return tuple(
                                    -v if values[v] == TRUE_V else v
                                    for v in variables)
                            continue
                        lit = open_var if parity else -open_var
                        self._assign(lit, cid)
            if not self.learnts:
                return None
            # Learnt pass: evaluate the store against the current
            # assignment; any implication re-enters the DB-level loop.
            progressed = False
            for lits in self.learnts:
                unit = 0
                open_count = 0
                satisfied = False
                for lit in lits:
                    value = values[lit] if lit > 0 else -values[-lit]
                    if value == TRUE_V:
                        satisfied = True
                        break
                    if value == UNSET_V:
                        open_count += 1
                        if open_count > 1:
                            break
                        unit = lit
                if satisfied or open_count > 1:
                    continue
                if open_count == 0:
                    return lits
                self._assign(unit, lits)
                progressed = True
            if not progressed:
                return None

    # ------------------------------------------------------------------
    # conflict analysis: resolution back to the decision literals
    # ------------------------------------------------------------------
    def _antecedent(self, var: int) -> tuple[int, ...]:
        """The clause that forced ``var`` (as a literal tuple: the forced
        literal plus the negations of the assignments that forced it)."""
        reason = self._reason[var]
        if isinstance(reason, tuple):
            return reason
        db = self.db
        if reason < db.num_clauses:
            return db.clauses[reason]
        variables, _rhs = db.xors[reason - db.num_clauses]
        forced = var if self.values[var] == TRUE_V else -var
        lits = [forced]
        for v in variables:
            if v != var:
                lits.append(-v if self.values[v] == TRUE_V else v)
        return tuple(lits)

    def _analyze(self, conflict: tuple[int, ...]) -> tuple[int, ...] | None:
        """Resolve ``conflict`` back to decision literals.

        Every implied variable is replaced by its antecedent (strictly
        earlier on the trail, so the resolution terminates); asserted
        roots resolve away against their unit clauses.  Returns the
        learnt clause — the false literals of the decisions the
        conflict depended on — or ``None`` when no decision was
        involved (the formula is unsatisfiable under the roots).
        """
        position = {var: index for index, var in enumerate(self.trail)}
        seen: set[int] = set()
        learnt: list[int] = []
        heap: list[int] = []  # max-heap over trail positions (negated)

        def absorb(lits) -> None:
            for lit in lits:
                var = lit if lit > 0 else -lit
                if var in seen:
                    continue
                seen.add(var)
                if self._is_decision[var]:
                    learnt.append(
                        -var if self.values[var] == TRUE_V else var)
                elif self._reason[var] is not None:
                    heapq.heappush(heap, -position[var])

        absorb(conflict)
        while heap:
            var = self.trail[-heapq.heappop(heap)]
            absorb(self._antecedent(var))
        if not learnt:
            return None
        return tuple(sorted(learnt))

    def _store_learnt(self, lits: tuple[int, ...]) -> None:
        if lits in self._learnt_set:
            return
        if len(self.learnts) >= self.max_learnts:
            # FIFO eviction keeps the store bounded; dropping a clause
            # only loses pruning power, never soundness.  Evicted
            # clauses may still be referenced as reasons on the trail —
            # reasons hold the literal tuple itself, so that is safe.
            evicted = self.learnts.pop(0)
            self._learnt_set.discard(evicted)
            self.learnt_evicted += 1
        self.learnts.append(lits)
        self._learnt_set.add(lits)
        self.learned += 1

    # ------------------------------------------------------------------
    # search surface
    # ------------------------------------------------------------------
    def decide(self, lit: int) -> int | None:
        """Assign ``lit`` as a decision and propagate.

        Returns the trail mark to unwind to on success; ``None`` on
        conflict (with the trail already unwound and — when learning is
        on — the conflict resolved into the learnt store).
        """
        mark = len(self.trail)
        var = lit if lit > 0 else -lit
        if self.values[var] != UNSET_V:
            # Already assigned: consistent decisions are a no-op,
            # contradictions fail the branch (defensive — the counter
            # only branches on unassigned variables).
            want = TRUE_V if lit > 0 else FALSE_V
            return mark if self.values[var] == want else None
        if self.root_conflict:
            return None
        self._assign(lit, None)
        self._is_decision[var] = 1
        conflict = self._bcp(mark)
        if conflict is None:
            return mark
        self.conflicts += 1
        if self.learn:
            learnt = self._analyze(conflict)
            if learnt is None:
                self.root_conflict = True
            else:
                self._store_learnt(learnt)
        self.unwind(mark)
        return None

    def unwind(self, mark: int) -> None:
        """Undo every assignment made after ``mark``."""
        for var in self.trail[mark:]:
            self.values[var] = UNSET_V
            self._reason[var] = None
            self._is_decision[var] = 0
        del self.trail[mark:]

    def split(self, scope) -> tuple[list[Component], list[int]]:
        """Component split of ``scope`` under the current assignment."""
        return self.db.split(self.values, scope)

    def residual(self, cid: int):
        """Canonical residual of ``cid`` under the current assignment."""
        return self.db.residual(self.values, cid)

    def seed(self, clauses) -> int:
        """Seed the learnt store with shared lemmas.

        ``clauses`` are literal tuples entailed by the DB formula —
        typically another driver's learnt clauses over the same
        snapshot (:func:`presolve_lemmas`).  Seeded lemmas propagate
        and prune like learnt clauses but are not counted as learned
        here.  Returns the number of lemmas admitted; no-op when
        learning is off.
        """
        if not self.learn:
            return 0
        before = self.learned
        for lits in clauses:
            self._store_learnt(tuple(sorted(lits)))
        admitted = self.learned - before
        self.learned = before
        return admitted

    def stats(self) -> dict[str, int]:
        """The driver's learning counters (for telemetry merges)."""
        return {"conflicts": self.conflicts, "learned": self.learned,
                "learnt_evicted": self.learnt_evicted,
                "propagations": self.propagations}


# ======================================================================
# CDCL kernel + driver
# ======================================================================
class _Frame:
    """Bookkeeping snapshot for push/pop."""

    __slots__ = ("num_vars", "num_clauses", "num_learnts", "trail_len",
                 "xor_mark", "ok")

    def __init__(self, num_vars, num_clauses, num_learnts, trail_len,
                 xor_mark, ok):
        self.num_vars = num_vars
        self.num_clauses = num_clauses
        self.num_learnts = num_learnts
        self.trail_len = trail_len
        self.xor_mark = xor_mark
        self.ok = ok


class PropagationKernel:
    """The watcher-side propagation kernel.

    Owns the clause/XOR storage, the two-watched-literal and XOR watch
    indexes, the assignment trail with decision levels, first-UIP
    conflict analysis with clause minimisation and frame-dependency
    tracking, push/pop frames with safe learnt-clause retention, and
    snapshot/clone seeding.  Search policy (decision heuristics,
    restarts, clause-DB reduction) belongs to the driver subclass —
    :class:`CdclDriver` — so kernel improvements benefit every driver.
    """

    def __init__(self):
        self._assigns: list[int] = [UNASSIGNED]  # index 0 unused
        self._level: list[int] = [0]
        self._reason: list = [None]  # Clause | ("xor", row) | None
        self._activity: list[float] = [0.0]
        self._phase: list[bool] = [False]
        # Frame depth of each variable's level-0 assignment (meaningful
        # only while the variable is root-assigned; popping that frame
        # unassigns it via the trail mark).
        self._assign_frame: list[int] = [0]
        # Watcher lists hold [blocker, clause] pairs (MiniSat-style
        # blocking literals); the blocker is stored as a *literal
        # index* (``lit_index``) into ``_lit_vals``, always of a
        # literal of the clause, refreshed opportunistically during
        # propagation.  With ``use_blockers`` False the lists hold
        # bare clauses instead — the verbatim pre-overhaul
        # representation, kept as the honest A/B baseline — so the
        # flag must not change once any clause has been watched.
        self._watches: list[list] = []
        # Signed assignment view indexed by lit_index: the value of
        # each *literal* (TRUE / FALSE / UNASSIGNED).  Redundant with
        # ``_assigns`` but turns every truth test in the watcher hot
        # loop into one list index + one compare; maintained by
        # ``_enqueue`` / ``_unassign`` (assignments are far rarer than
        # watcher visits).
        self._lit_vals: list[int] = []
        self._clauses: list[Clause] = []
        self._learnts: list[Clause] = []
        self._trail: list[int] = []
        self._trail_lim: list[int] = []
        self._qhead = 0
        self._order_heap: list[tuple[float, int]] = []
        self._var_inc = 1.0
        self._var_decay = 1.0 / 0.95
        self._cla_inc = 1.0
        self._cla_decay = 1.0 / 0.999
        self._frames: list[_Frame] = []
        self._ok = True
        # Set by add_blocking_clause: the next solve() continues from
        # the backjumped trail instead of restarting at level 0.  Every
        # backtrack clears it, so any other mutation (add_clause,
        # add_xor, push, pop, snapshot) falls back to the level-0 path.
        self._resume = False
        self._max_learnts = 4000.0
        self.retain_learnts = True
        # Search-policy switches (threaded from PactConfig; the legacy
        # values reproduce the pre-overhaul kernel for A/B benching).
        # ``use_blockers`` selects the watcher representation and must
        # be set before clauses are added.
        self.restart_policy = "luby"
        self.reduce_policy = "lbd"
        self.use_blockers = True
        # Glucose-EMA restart state: exponential moving averages of
        # learnt-clause LBD (reset on solve(), not on restart).
        self._lbd_fast = 0.0
        self._lbd_slow = 0.0
        # Bitmask views of the assignment, consumed by the XOR engine.
        self.assigned_mask = 0
        self.true_mask = 0
        self.xor = XorEngine(self)
        # statistics
        self.stats = {
            "decisions": 0, "propagations": 0, "conflicts": 0,
            "restarts": 0, "solves": 0, "learnt_literals": 0,
            "retained_learnts": 0,
        }

    # ------------------------------------------------------------------
    # problem construction
    # ------------------------------------------------------------------
    def new_var(self) -> int:
        """Allocate a fresh variable and return its (positive) id."""
        self._assigns.append(UNASSIGNED)
        self._level.append(0)
        self._reason.append(None)
        self._activity.append(0.0)
        self._phase.append(False)
        self._assign_frame.append(0)
        self._watches.append([])
        self._watches.append([])
        self._lit_vals.append(UNASSIGNED)
        self._lit_vals.append(UNASSIGNED)
        var = len(self._assigns) - 1
        heapq.heappush(self._order_heap, (0.0, var))
        return var

    def new_vars(self, count: int) -> list[int]:
        """Allocate ``count`` fresh variables."""
        return [self.new_var() for _ in range(count)]

    def num_vars(self) -> int:
        return len(self._assigns) - 1

    def num_clauses(self) -> int:
        return len(self._clauses)

    def num_learnts(self) -> int:
        return len(self._learnts)

    @property
    def ok(self) -> bool:
        """False once the formula is known unsatisfiable at level 0."""
        return self._ok

    def value(self, lit: int) -> int:
        """Current value of a literal: TRUE, FALSE or UNASSIGNED."""
        v = self._assigns[lit if lit > 0 else -lit]
        if v == UNASSIGNED:
            return UNASSIGNED
        return v if lit > 0 else v ^ 1

    def add_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause; backtracks to decision level 0 first.

        Returns False if the solver becomes (or already was) inconsistent.
        """
        self._backtrack(0)
        if not self._ok:
            return False
        seen = set()
        simplified: list[int] = []
        for lit in lits:
            var = lit if lit > 0 else -lit
            if var <= 0 or var > self.num_vars():
                raise ValueError(f"unknown variable in literal {lit}")
            if -lit in seen:
                return True  # tautology
            if lit in seen:
                continue
            value = self.value(lit)
            if value == TRUE:
                return True  # already satisfied at level 0
            if value == FALSE:
                continue  # literal can never help
            seen.add(lit)
            simplified.append(lit)
        if not simplified:
            self._ok = False
            return False
        if len(simplified) == 1:
            if not self._enqueue_root(simplified[0]):
                return False
            return self._propagate_root()
        clause = Clause(simplified, dep=len(self._frames))
        self._clauses.append(clause)
        self._watch_clause(clause)
        return True

    def add_blocking_clause(self, lits: Iterable[int]) -> bool:
        """Add a clause the current assignment falsifies, keeping the trail.

        The all-solutions fast path (Toda & Soh, JEA 2016): instead of
        backtracking to level 0 like :meth:`add_clause`, backjump to the
        clause's asserting level — the second-highest decision level
        among its literals — and assert the highest-level literal with
        the clause as its reason.  When the two highest literals share
        a level, backjump one level below it and assert nothing.  The
        next :meth:`CdclDriver.solve` resumes from that trail.

        Duplicate literals and literals false at level 0 are dropped as
        in :meth:`add_clause`; when every literal is false at level 0
        the formula in the current frame is unsatisfiable.  A clause
        with a literal that is not false (no model on the trail) takes
        the :meth:`add_clause` path.  Returns False if the solver is
        (or becomes) inconsistent.
        """
        lits = list(lits)
        if any(self.value(lit) != FALSE for lit in lits):
            return self.add_clause(lits)
        if not self._ok:
            return False
        level = self._level
        kept = sorted({lit for lit in lits if level[abs(lit)] > 0},
                      key=lambda lit: (-level[abs(lit)], abs(lit)))
        if not kept:
            self._backtrack(0)
            self._ok = False
            return False
        if len(kept) == 1:
            self._backtrack(0)
            self._enqueue(kept[0], None)
        else:
            top = level[abs(kept[0])]
            second = level[abs(kept[1])]
            clause = Clause(kept, dep=len(self._frames))
            self._clauses.append(clause)
            self._watch_clause(clause)
            if top == second:
                self._backtrack(top - 1)
            else:
                self._backtrack(second)
                self._enqueue(kept[0], clause)
        self._resume = True
        return True

    def add_xor(self, variables: list[int], rhs: bool) -> bool:
        """Add a parity constraint; backtracks to decision level 0 first."""
        self._backtrack(0)
        if not self._ok:
            return False
        if not self.xor.add_xor(variables, rhs):
            self._ok = False
            return False
        return self._propagate_root()

    def _watch_clause(self, clause: Clause) -> None:
        lits = clause.lits
        if self.use_blockers:
            self._watches[lit_index(lits[0])].append(
                [lit_index(lits[1]), clause])
            self._watches[lit_index(lits[1])].append(
                [lit_index(lits[0]), clause])
        else:
            self._watches[lit_index(lits[0])].append(clause)
            self._watches[lit_index(lits[1])].append(clause)

    def _detach_deleted(self) -> None:
        """Scrub watchers of deleted clauses from every watch list.

        Called from the rare deletion sites (:meth:`pop`,
        ``_reduce_db``) so the blocking hot loop never pays a per-visit
        ``clause.deleted`` check, and so no watcher pair survives whose
        blocker index refers to a variable a frame dropped.
        """
        watches = self._watches
        if self.use_blockers:
            for idx, watchers in enumerate(watches):
                if any(w[1].deleted for w in watchers):
                    watches[idx] = [w for w in watchers
                                    if not w[1].deleted]
        else:
            for idx, watchers in enumerate(watches):
                if any(c.deleted for c in watchers):
                    watches[idx] = [c for c in watchers
                                    if not c.deleted]

    def _propagate_root(self) -> bool:
        conflict = self._propagate()
        if conflict is not None:
            self._ok = False
            return False
        return True

    # ------------------------------------------------------------------
    # frames
    # ------------------------------------------------------------------
    def push(self) -> None:
        """Open a frame: everything added after this call pops with it."""
        self._backtrack(0)
        self._qhead = len(self._trail)
        self._frames.append(_Frame(
            self.num_vars(), len(self._clauses), len(self._learnts),
            len(self._trail), self.xor.mark(), self._ok,
        ))

    def pop(self) -> None:
        """Close the innermost frame, restoring the solver state.

        Learnt clauses born inside the frame whose variables and whole
        derivation predate it (``dep`` below the popped depth, no
        frame-local variable) are entailed by the surviving formula and
        are retained instead of deleted.
        """
        if not self._frames:
            raise RuntimeError("pop without matching push")
        depth = len(self._frames)
        frame = self._frames.pop()
        self._backtrack(0)
        # Undo level-0 assignments made inside the frame.
        for lit in self._trail[frame.trail_len:]:
            self._unassign(lit)
        del self._trail[frame.trail_len:]
        self._qhead = min(self._qhead, frame.trail_len)
        # Remove clauses added inside the frame; retain the learnts whose
        # derivation never touched it.
        dropped_any = len(self._clauses) > frame.num_clauses
        for clause in self._clauses[frame.num_clauses:]:
            clause.deleted = True
        del self._clauses[frame.num_clauses:]
        tail = self._learnts[frame.num_learnts:]
        del self._learnts[frame.num_learnts:]
        num_vars = frame.num_vars
        for clause in tail:
            if (self.retain_learnts and not clause.deleted
                    and clause.dep < depth
                    and all((lit if lit > 0 else -lit) <= num_vars
                            for lit in clause.lits)):
                self._learnts.append(clause)
                self.stats["retained_learnts"] += 1
            else:
                clause.deleted = True
                dropped_any = True
        self.xor.truncate(frame.xor_mark)
        # Drop frame-local variables.
        if self.num_vars() > frame.num_vars:
            del self._assigns[frame.num_vars + 1:]
            del self._level[frame.num_vars + 1:]
            del self._reason[frame.num_vars + 1:]
            del self._activity[frame.num_vars + 1:]
            del self._phase[frame.num_vars + 1:]
            del self._assign_frame[frame.num_vars + 1:]
            del self._watches[2 * frame.num_vars:]
            del self._lit_vals[2 * frame.num_vars:]
        if dropped_any:
            self._detach_deleted()
        self._ok = frame.ok

    @property
    def frame_depth(self) -> int:
        return len(self._frames)

    # ------------------------------------------------------------------
    # snapshots (the compile pipeline's clause-DB transfer)
    # ------------------------------------------------------------------
    def snapshot(self) -> SatSnapshot:
        """Capture the root formula as an immutable :class:`SatSnapshot`.

        Only legal at frame depth 0 (the compile pipeline snapshots right
        after bit-blasting, before any hash or blocking frame opens).
        Backtracks to decision level 0 first; learnt clauses are left out
        by design (see :class:`SatSnapshot`).
        """
        if self._frames:
            raise RuntimeError(
                "snapshot() requires frame depth 0 "
                f"(currently {len(self._frames)})")
        self._backtrack(0)
        return SatSnapshot(
            num_vars=self.num_vars(),
            clauses=tuple(tuple(clause.lits) for clause in self._clauses
                          if not clause.deleted),
            units=tuple(self._trail),
            xors=tuple((tuple(row.variables()), bool(row.rhs))
                       for row in self.xor.rows),
            ok=self._ok)

    def clone_from(self, snap: SatSnapshot) -> "PropagationKernel":
        """Load ``snap`` into this (pristine) solver and return it.

        Replays the image through the normal construction path —
        ``new_vars``, root units, clauses, XOR rows — so watches, masks
        and propagation state are rebuilt consistently.  Much cheaper
        than re-running preprocessing + Tseitin blasting: the work is
        linear in the clause database.
        """
        if self.num_vars() or self._clauses or self._frames or self._trail:
            raise RuntimeError("clone_from() requires a pristine solver")
        self.new_vars(snap.num_vars)
        for lit in snap.units:
            self.add_clause([lit])
        for clause in snap.clauses:
            self.add_clause(clause)
        for variables, rhs in snap.xors:
            self.add_xor(list(variables), rhs)
        if not snap.ok:
            self._ok = False
        return self

    @classmethod
    def from_snapshot(cls, snap: SatSnapshot) -> "PropagationKernel":
        """A fresh solver loaded from ``snap`` (see :meth:`clone_from`)."""
        return cls().clone_from(snap)

    def clause_db(self, extra_clauses=()) -> ClauseDB:
        """The root formula as a :class:`ClauseDB` (the component
        drivers' storage face).  Frame depth 0 only, like
        :meth:`snapshot`."""
        return ClauseDB.from_snapshot(self.snapshot(),
                                      extra_clauses=extra_clauses)

    # ------------------------------------------------------------------
    # assignment trail
    # ------------------------------------------------------------------
    def _enqueue(self, lit: int, reason) -> bool:
        """Assign ``lit`` true with ``reason``; False if already false."""
        var = lit if lit > 0 else -lit
        current = self._assigns[var]
        if current != UNASSIGNED:
            return (current == TRUE) == (lit > 0)
        value = TRUE if lit > 0 else FALSE
        self._assigns[var] = value
        self._level[var] = len(self._trail_lim)
        self._reason[var] = reason
        if not self._trail_lim:
            # Root assignment: lives (and is entailed) exactly while the
            # current frame does — the retention bound for any learnt
            # clause whose analysis skipped this variable.
            self._assign_frame[var] = len(self._frames)
        self._trail.append(lit)
        lit_vals = self._lit_vals
        idx = 2 * (var - 1)
        if lit > 0:
            lit_vals[idx] = TRUE
            lit_vals[idx + 1] = FALSE
        else:
            lit_vals[idx] = FALSE
            lit_vals[idx + 1] = TRUE
        bit = 1 << var
        self.assigned_mask |= bit
        if value == TRUE:
            self.true_mask |= bit
        return True

    def _enqueue_root(self, lit: int) -> bool:
        """Level-0 unit assignment (no reason needed)."""
        if not self._enqueue(lit, None):
            self._ok = False
            return False
        return True

    def _unassign(self, lit: int) -> None:
        var = lit if lit > 0 else -lit
        self._phase[var] = self._assigns[var] == TRUE
        self._assigns[var] = UNASSIGNED
        self._reason[var] = None
        idx = 2 * (var - 1)
        self._lit_vals[idx] = UNASSIGNED
        self._lit_vals[idx + 1] = UNASSIGNED
        bit = 1 << var
        self.assigned_mask &= ~bit
        self.true_mask &= ~bit
        heapq.heappush(self._order_heap, (-self._activity[var], var))

    def _backtrack(self, level: int) -> None:
        self._resume = False
        if len(self._trail_lim) <= level:
            return
        bound = self._trail_lim[level]
        for lit in reversed(self._trail[bound:]):
            self._unassign(lit)
        del self._trail[bound:]
        del self._trail_lim[level:]
        self._qhead = bound

    def decision_level(self) -> int:
        return len(self._trail_lim)

    # ------------------------------------------------------------------
    # propagation
    # ------------------------------------------------------------------
    def _propagate(self) -> Clause | None:
        """Propagate queued assignments; return a conflict clause or None.

        The loop is deliberately lean: the watcher-loop dispatch is
        bound once, the propagation counter is accumulated locally and
        flushed on exit, and the XOR hook is skipped entirely when no
        rows exist (``on_assign`` would be a no-op dict probe per
        assignment otherwise).
        """
        trail = self._trail
        propagate_clauses = (self._propagate_blocking if self.use_blockers
                             else self._propagate_plain)
        xor = self.xor
        xor_active = bool(xor.rows)
        conflict = None
        count = 0
        while self._qhead < len(trail):
            lit = trail[self._qhead]
            self._qhead += 1
            count += 1
            conflict = propagate_clauses(-lit)
            if conflict is not None:
                break
            if xor_active:
                conflict = xor.on_assign(lit if lit > 0 else -lit)
                if conflict is not None:
                    break
        self.stats["propagations"] += count
        return conflict

    def _propagate_clauses(self, false_lit: int) -> Clause | None:
        """Visit clauses watching ``false_lit`` (which just became false).

        Dispatches on ``use_blockers``: the blocking-literal loop over
        ``[blocker, clause]`` watcher pairs, or the verbatim
        pre-overhaul loop over bare clauses (the A/B baseline the
        kernel bench measures against).  Both reach the same
        propagation fixpoint, so SAT verdicts — and all counts and
        estimates, which are functions of the verdicts alone — are
        bit-identical between them.
        """
        if self.use_blockers:
            return self._propagate_blocking(false_lit)
        return self._propagate_plain(false_lit)

    def _propagate_blocking(self, false_lit: int) -> Clause | None:
        """The blocking-literal watcher loop.

        Each watcher is a ``[blocker_index, clause]`` pair: the cached
        blocking literal is stored pre-translated through ``lit_index``
        so the skip test is one ``_lit_vals`` load and one compare —
        when it reads TRUE the clause is satisfied and is skipped
        without touching its literal list.  The skip only fires on
        satisfied clauses, so it never suppresses a unit enqueue or a
        conflict.  There is no per-visit deleted check: the deletion
        sites eagerly scrub watch lists (``_detach_deleted``), which
        also guarantees every surviving blocker index is in range.
        """
        watches = self._watches
        watchers = watches[lit_index(false_lit)]
        lit_vals = self._lit_vals
        true_v, false_v = TRUE, FALSE
        kept = 0
        i = 0
        n = len(watchers)
        conflict = None
        while i < n:
            watcher = watchers[i]
            i += 1
            if lit_vals[watcher[0]] == true_v:
                watchers[kept] = watcher
                kept += 1
                continue
            clause = watcher[1]
            lits = clause.lits
            if lits[0] == false_lit:
                lits[0] = lits[1]
                lits[1] = false_lit
            first = lits[0]
            first_idx = 2 * (first - 1) if first > 0 else -2 * first - 1
            fv = lit_vals[first_idx]
            if fv == true_v:
                watcher[0] = first_idx  # cache the satisfying literal
                watchers[kept] = watcher
                kept += 1
                continue
            moved = False
            for k in range(2, len(lits)):
                lk = lits[k]
                kidx = 2 * (lk - 1) if lk > 0 else -2 * lk - 1
                if lit_vals[kidx] != false_v:  # true or unassigned
                    lits[1] = lk
                    lits[k] = false_lit
                    watcher[0] = first_idx
                    watches[kidx].append(watcher)
                    moved = True
                    break
            if moved:
                continue
            watchers[kept] = watcher
            kept += 1
            if fv == false_v:  # first is false: conflict
                conflict = clause
                while i < n:  # keep the remaining watchers
                    watchers[kept] = watchers[i]
                    kept += 1
                    i += 1
                break
            self._enqueue(first, clause)
        del watchers[kept:]
        return conflict

    def _propagate_plain(self, false_lit: int) -> Clause | None:
        """The pre-overhaul watcher loop over bare clauses, unchanged.

        Kept as the honest baseline for the kernel bench's A/B rows
        (``benchmarks/test_bench_kernel.py``) and the differential
        tests: representation and visit order are exactly the legacy
        kernel's, not the blocking loop with the skip disabled.
        """
        watchers = self._watches[lit_index(false_lit)]
        assigns = self._assigns
        kept = 0
        i = 0
        n = len(watchers)
        conflict = None
        while i < n:
            clause = watchers[i]
            i += 1
            if clause.deleted:
                continue
            lits = clause.lits
            if lits[0] == false_lit:
                lits[0] = lits[1]
                lits[1] = false_lit
            first = lits[0]
            fv = assigns[first if first > 0 else -first]
            if fv != UNASSIGNED and (fv == TRUE) == (first > 0):
                watchers[kept] = clause
                kept += 1
                continue
            moved = False
            for k in range(2, len(lits)):
                lk = lits[k]
                kv = assigns[lk if lk > 0 else -lk]
                if kv == UNASSIGNED or (kv == TRUE) == (lk > 0):
                    lits[1] = lk
                    lits[k] = false_lit
                    self._watches[lit_index(lk)].append(clause)
                    moved = True
                    break
            if moved:
                continue
            watchers[kept] = clause
            kept += 1
            if fv != UNASSIGNED:  # first is false: conflict
                conflict = clause
                while i < n:  # keep the remaining watchers
                    watchers[kept] = watchers[i]
                    kept += 1
                    i += 1
                break
            self._enqueue(first, clause)
        del watchers[kept:]
        return conflict

    # ------------------------------------------------------------------
    # conflict analysis (first UIP)
    # ------------------------------------------------------------------
    def _reason_clause(self, var: int) -> Clause | None:
        reason = self._reason[var]
        if reason is None or isinstance(reason, Clause):
            return reason
        tag, row_index = reason
        assert tag == "xor"
        lit = var if self._assigns[var] == TRUE else -var
        return self.xor.reason_clause(lit, row_index)

    def _analyze(self, conflict: Clause) -> tuple[list[int], int, int]:
        """First-UIP analysis; returns (learnt lits, backtrack level, dep).

        learnt[0] is the asserting literal.  ``dep`` is the innermost
        frame depth the derivation relied on — the deepest frame among
        the antecedent clauses resolved on (XOR reasons carry their row's
        birth frame) and the root assignments whose variables the
        analysis skipped — i.e. the retention bound :meth:`pop` checks.
        """
        learnt = [0]
        seen: set[int] = set()
        counter = 0
        lit = None
        index = len(self._trail) - 1
        current_level = self.decision_level()
        reason_lits = conflict.lits
        dep = conflict.dep
        assign_frame = self._assign_frame
        while True:
            start = 1 if lit is not None else 0
            for q in reason_lits[start:]:
                var = q if q > 0 else -q
                if var in seen:
                    continue
                if self._level[var] == 0:
                    if assign_frame[var] > dep:
                        dep = assign_frame[var]
                    continue
                seen.add(var)
                self._bump_var(var)
                if self._level[var] == current_level:
                    counter += 1
                else:
                    learnt.append(q)
            # Pick the next trail literal to resolve on.
            while True:
                lit = self._trail[index]
                index -= 1
                var = lit if lit > 0 else -lit
                if var in seen:
                    break
            counter -= 1
            if counter == 0:
                learnt[0] = -lit
                break
            # Resolved variables always have a reason (first-UIP stops
            # before reaching the decision), so no None check.
            clause = self._reason_clause(var)
            if clause.dep > dep:
                dep = clause.dep
            if clause.learnt:
                self._bump_clause(clause)
            reason_lits = clause.lits
        dep = self._minimize(learnt, seen, dep)
        # Compute backtrack level: second-highest decision level in learnt.
        if len(learnt) == 1:
            back_level = 0
        else:
            max_i = 1
            for i in range(2, len(learnt)):
                v = abs(learnt[i])
                if self._level[v] > self._level[abs(learnt[max_i])]:
                    max_i = i
            learnt[1], learnt[max_i] = learnt[max_i], learnt[1]
            back_level = self._level[abs(learnt[1])]
        self.stats["learnt_literals"] += len(learnt)
        return learnt, back_level, dep

    def _minimize(self, learnt: list[int], seen: set[int],
                  dep: int) -> int:
        """Drop literals whose reasons are subsumed by the learnt clause.

        Each drop resolves against the literal's reason clause, so its
        frame dependencies (and those of the root assignments it leans
        on) fold into ``dep``; returns the updated bound.
        """
        kept = [learnt[0]]
        for lit in learnt[1:]:
            var = lit if lit > 0 else -lit
            reason = self._reason_clause(var)
            if reason is None:
                kept.append(lit)
                continue
            removable = True
            for q in reason.lits:
                qv = q if q > 0 else -q
                if qv != var and qv not in seen and self._level[qv] > 0:
                    removable = False
                    break
            if not removable:
                kept.append(lit)
                continue
            if reason.dep > dep:
                dep = reason.dep
            for q in reason.lits:
                qv = q if q > 0 else -q
                if (self._level[qv] == 0
                        and self._assign_frame[qv] > dep):
                    dep = self._assign_frame[qv]
        learnt[:] = kept
        return dep

    # ------------------------------------------------------------------
    # activities
    # ------------------------------------------------------------------
    def _bump_var(self, var: int) -> None:
        act = self._activity[var] + self._var_inc
        self._activity[var] = act
        if act > _ACTIVITY_RESCALE:
            inv = 1.0 / _ACTIVITY_RESCALE
            for v in range(1, len(self._activity)):
                self._activity[v] *= inv
            self._var_inc *= inv
            self._order_heap = [
                (-self._activity[v], v) for v in range(1, self.num_vars() + 1)
                if self._assigns[v] == UNASSIGNED
            ]
            heapq.heapify(self._order_heap)
            return
        heapq.heappush(self._order_heap, (-act, var))

    def _bump_clause(self, clause: Clause) -> None:
        clause.activity += self._cla_inc
        if clause.activity > _ACTIVITY_RESCALE:
            inv = 1.0 / _ACTIVITY_RESCALE
            for c in self._learnts:
                c.activity *= inv
            self._cla_inc *= inv

    def _decay_activities(self) -> None:
        self._var_inc *= self._var_decay
        self._cla_inc *= self._cla_decay

    # ------------------------------------------------------------------
    # model access
    # ------------------------------------------------------------------
    def model_value(self, lit: int) -> bool:
        """Value of ``lit`` in the model found by the last SAT answer."""
        value = self.value(lit)
        if value == UNASSIGNED:
            raise RuntimeError(f"literal {lit} unassigned; no model")
        return value == TRUE

    def model(self) -> list[bool]:
        """The model as a list indexed by variable (index 0 unused)."""
        return [False] + [
            self._assigns[v] == TRUE for v in range(1, self.num_vars() + 1)
        ]


class CdclDriver(PropagationKernel):
    """The CDCL search driver: VSIDS decisions, Luby or Glucose-EMA
    restarts (``restart_policy``) and LBD- or activity-ranked learnt-DB
    reduction (``reduce_policy``) over the propagation kernel.

    ``repro.sat.solver.SatSolver`` subclasses this unchanged — the
    public ``solve``/``push``/``pop``/``snapshot`` surface is exactly
    the pre-kernel solver's.  Every policy combination returns the same
    verdicts (restart and reduction schedules never affect soundness or
    completeness), so counts and estimates are invariant under them.
    """

    # ------------------------------------------------------------------
    # decisions
    # ------------------------------------------------------------------
    def _decide(self) -> int | None:
        heap = self._order_heap
        assigns = self._assigns
        nv = self.num_vars()
        while heap:
            _, var = heapq.heappop(heap)
            if var <= nv and assigns[var] == UNASSIGNED:
                return var if self._phase[var] else -var
        for var in range(1, nv + 1):  # heap exhausted: linear fallback
            if assigns[var] == UNASSIGNED:
                return var if self._phase[var] else -var
        return None

    # ------------------------------------------------------------------
    # learnt clause DB reduction
    # ------------------------------------------------------------------
    def _reduce_db(self) -> None:
        """Delete up to half of the current frame's learnt-clause tail.

        ``reduce_policy == "lbd"`` ranks victims by Literal Block
        Distance (highest first, activity as tiebreak) and never
        deletes glue clauses (``lbd <= GLUE_LBD``) or clauses with
        unknown LBD (``lbd == 0``); ``"activity"`` is the pre-overhaul
        lowest-activity-first policy.  Both policies always keep
        binaries, reason clauses of trail literals, and — because only
        the tail past the innermost frame mark is considered —
        frame-pinned learnts, so pop() bookkeeping (index-based) stays
        valid.
        """
        start = self._frames[-1].num_learnts if self._frames else 0
        tail = [c for c in self._learnts[start:] if not c.deleted]
        if len(tail) < 64:
            return
        locked = {
            id(self._reason[abs(lit)])
            for lit in self._trail
            if isinstance(self._reason[abs(lit)], Clause)
        }
        limit = len(tail) // 2
        if self.reduce_policy == "lbd":
            victims = [c for c in tail
                       if len(c.lits) > 2 and c.lbd > GLUE_LBD
                       and id(c) not in locked]
            victims.sort(key=lambda c: (-c.lbd, c.activity))
            to_delete = {id(c) for c in victims[:limit]}
        else:
            tail.sort(key=lambda c: c.activity)
            to_delete = set()
            for clause in tail[:limit]:
                if len(clause.lits) > 2 and id(clause) not in locked:
                    to_delete.add(id(clause))
        if not to_delete:
            return
        for clause in self._learnts[start:]:
            if id(clause) in to_delete:
                clause.deleted = True
        self._learnts[start:] = [
            c for c in self._learnts[start:] if not c.deleted
        ]
        self._detach_deleted()

    # ------------------------------------------------------------------
    # main search
    # ------------------------------------------------------------------
    def solve(self, deadline: Deadline | None = None,
              conflict_budget: int | None = None) -> bool | None:
        """Search for a satisfying assignment.

        Returns True (SAT, model available via :meth:`model_value`),
        False (UNSAT).  Raises :class:`SolverTimeoutError` on deadline
        expiry and :class:`ResourceBudgetError` when ``conflict_budget``
        conflicts have been spent.
        """
        self.stats["solves"] += 1
        if deadline is None:
            deadline = Deadline.unlimited()
        deadline.check()
        if not self._ok:
            return False
        if self._resume:
            # add_blocking_clause left a propagated prefix plus the
            # flipped literal on the trail: search on from there.
            self._resume = False
        else:
            self._backtrack(0)
            if not self.xor.eliminate_root():
                self._ok = False
                return False
            self._qhead = 0  # re-propagate: frames may have changed the DB
            if self._propagate() is not None:
                self._ok = False
                return False
        conflicts_total = 0
        restart_count = 0
        glucose = self.restart_policy == "glucose"
        self._lbd_fast = 0.0
        self._lbd_slow = 0.0
        while True:
            restart_count += 1
            # Glucose mode restarts on the EMA condition inside
            # _search (budget None); Luby mode on the conflict budget.
            budget = (None if glucose
                      else _RESTART_BASE * luby(restart_count))
            result = self._search(budget, deadline, conflict_budget,
                                  conflicts_total)
            conflicts_total += abs(result[1])
            if result[0] is not None:
                return result[0]
            self.stats["restarts"] += 1
            self._backtrack(0)
            if (conflict_budget is not None
                    and conflicts_total >= conflict_budget):
                raise ResourceBudgetError(
                    f"conflict budget {conflict_budget} exhausted")

    def _search(self, budget: int | None, deadline: Deadline,
                conflict_budget: int | None,
                conflicts_before: int) -> tuple[bool | None, int]:
        """Run CDCL until SAT/UNSAT or a restart is due.

        ``budget`` is the Luby conflict budget, or None for Glucose-EMA
        mode: restart once the fast LBD average exceeds the slow one by
        the margin (learning is locally harder than the long-run trend,
        so the current prefix is likely a bad neighbourhood), but never
        before ``_GLUCOSE_MIN_CONFLICTS`` conflicts in this run.
        """
        conflicts = 0
        level = self._level
        while True:
            conflict = self._propagate()
            if conflict is not None:
                self.stats["conflicts"] += 1
                conflicts += 1
                if self.decision_level() == 0:
                    self._ok = False
                    return False, conflicts
                learnt, back_level, dep = self._analyze(conflict)
                # LBD = distinct decision levels in the learnt clause
                # (Audemard & Simon 2009); read before backtracking
                # while every learnt literal still has its level.
                lbd = len({level[lit if lit > 0 else -lit]
                           for lit in learnt})
                self._lbd_fast += _GLUCOSE_FAST_WEIGHT * (
                    lbd - self._lbd_fast)
                self._lbd_slow += _GLUCOSE_SLOW_WEIGHT * (
                    lbd - self._lbd_slow)
                self._backtrack(back_level)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    clause = Clause(learnt, learnt=True, lbd=lbd,
                                    dep=dep)
                    self._learnts.append(clause)
                    self._watch_clause(clause)
                    self._bump_clause(clause)
                    self._enqueue(learnt[0], clause)
                self._decay_activities()
                if conflicts % _DEADLINE_CHECK_INTERVAL == 0:
                    deadline.check()
                if budget is not None:
                    if conflicts >= budget:
                        return None, conflicts
                elif (conflicts >= _GLUCOSE_MIN_CONFLICTS
                      and self._lbd_fast
                      > _GLUCOSE_MARGIN * self._lbd_slow):
                    return None, conflicts
                if (conflict_budget is not None
                        and conflicts_before + conflicts >= conflict_budget):
                    return None, conflicts
                continue
            if len(self._learnts) > self._max_learnts:
                self._reduce_db()
            decision = self._decide()
            if decision is None:
                return True, conflicts  # all variables assigned: SAT
            self.stats["decisions"] += 1
            if self.stats["decisions"] % 512 == 0:
                deadline.check()
            self._trail_lim.append(len(self._trail))
            self._enqueue(decision, None)


def build_driver(kind: str, snapshot: SatSnapshot | None = None, *,
                 extra_clauses=(), **options):
    """Instantiate a search driver over the shared kernel storage.

    ``kind`` is ``"cdcl"`` (returns a :class:`CdclDriver` seeded via
    :meth:`PropagationKernel.clone_from`) or ``"component"`` (returns a
    :class:`ComponentDriver` over a :class:`ClauseDB`).  ``snapshot``
    may be omitted for an empty CDCL driver; the component driver
    requires one.  ``extra_clauses`` extend the component DB (the LRA
    closure path); ``options`` pass through to the driver constructor.
    """
    if kind == "cdcl":
        driver = CdclDriver(**options)
        if snapshot is not None:
            driver.clone_from(snapshot)
        return driver
    if kind == "component":
        if snapshot is None:
            raise ValueError("component driver requires a snapshot")
        db = ClauseDB.from_snapshot(snapshot, extra_clauses=extra_clauses)
        return ComponentDriver(db, **options)
    raise ValueError(f"unknown driver kind: {kind!r}")


# Presolve harvesting bounds: the lemma pass is an accelerator, never a
# second search — a small conflict budget caps its cost, and only short
# clauses are worth the component driver's linear learnt-store scans.
_PRESOLVE_CONFLICTS = 2048
_PRESOLVE_MAX_CLAUSE = 8
_PRESOLVE_MAX_SHARED = 128


def presolve_lemmas(snapshot: SatSnapshot, *, deadline: Deadline | None
                    = None) -> tuple[bool | None, list[int], list[tuple]]:
    """One bounded CDCL solve over ``snapshot``, harvested for sharing.

    This is the kernel-unification dividend in one function: because
    both drivers run over the same storage, a CDCL pass's conclusions
    transfer verbatim to the component driver.  Returns ``(verdict,
    units, clauses)``:

    * ``verdict`` — True (satisfiable), False (unsatisfiable), or None
      (conflict budget exhausted before a verdict);
    * ``units`` — level-0 implied literals beyond the snapshot's own
      root units.  These are backbone facts: resolution consequences of
      the formula, satisfied by *every* model, so another driver may
      assert them as roots without changing its model set or count;
    * ``clauses`` — retained learnt clauses (short ones first, capped),
      as sorted literal tuples, each entailed by the snapshot formula.

    Everything returned is sound to share unconditionally; only its
    *pruning* inside a component count is subject to the purge
    discipline (see :class:`ComponentDriver`).
    """
    driver = CdclDriver()
    driver.clone_from(snapshot)
    verdict: bool | None = None
    try:
        verdict = driver.solve(deadline=deadline,
                               conflict_budget=_PRESOLVE_CONFLICTS)
    except ResourceBudgetError:
        driver._backtrack(0)
    if verdict is False or not driver.ok:
        return False, [], []
    known = set(snapshot.units)
    units = []
    for lit in driver._trail:
        if driver._level[abs(lit)] != 0:
            break
        if lit not in known:
            units.append(lit)
    clauses = sorted(
        (tuple(sorted(clause.lits))
         for clause in driver._learnts
         if not clause.deleted
         and len(clause.lits) <= _PRESOLVE_MAX_CLAUSE),
        key=len)[:_PRESOLVE_MAX_SHARED]
    return verdict, units, clauses
