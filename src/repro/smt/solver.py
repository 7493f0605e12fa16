"""The SMT solver driver: preprocessing + eager blasting + lazy LRA.

Architecture (mirroring the CVC5 configuration pact uses, section III-F):

* assertions are preprocessed eagerly (FP->BV, arrays/UF->Ackermann,
  real atoms -> Boolean abstraction) and bit-blasted into the CDCL core
  immediately — the solver is *incremental*: later ``check()`` calls reuse
  all clauses and learnt clauses;
* ``check()`` runs a lazy DPLL(T) loop for LRA: SAT model -> simplex
  feasibility -> either a real model or a blocking clause;
* ``push()``/``pop()`` frames scope assertions, hash constraints, blocking
  clauses and all preprocessing registries — the exact discipline
  SaturatingCounter and the hash ladder need; learnt clauses whose
  derivation never touched the popped frame are *retained* by the SAT
  core (see :meth:`set_retention`), so popping a blocking frame or a
  ladder rung keeps what the solver learnt about the rest;
* XOR hash constraints go straight to the native XOR engine via
  :meth:`assert_xor_bits`.
"""

from __future__ import annotations

from repro.errors import CounterError
from repro.sat.solver import SatSolver
from repro.smt.bitblast.blaster import BitBlaster
from repro.smt.bitblast.cnf import CnfBuilder
from repro.smt.model import Model, free_variables
from repro.smt.ops import Op
from repro.smt.preprocess import Preprocessor
from repro.smt.semantics import ArrayValue, FunctionValue
from repro.smt.terms import Term
from repro.smt.theories.lra.theory import LraTheory
from repro.utils.deadline import Deadline


class SmtSolver:
    """An incremental SMT solver over the supported hybrid theories."""

    def __init__(self):
        self.sat = SatSolver()
        self.builder = CnfBuilder(self.sat)
        self.blaster = BitBlaster(self.builder)
        self.preprocessor = Preprocessor()
        self.lra = LraTheory()
        self._assertion_stack: list[list[Term]] = [[]]
        self._real_model: dict[Term, object] = {}
        self.stats = {"checks": 0, "theory_rounds": 0}

    @classmethod
    def from_compiled(cls, compiled) -> "SmtSolver":
        """A counting solver seeded from a
        :class:`repro.compile.artifact.CompiledProblem`.

        The SAT core is cloned from the artifact's clause-DB snapshot
        (linear work — no preprocessing, no Tseitin walk), the blaster's
        root memo is pre-seeded with the projection->bit map (so
        ``ensure_bits`` and hash terms over projection variables reuse
        the compiled literals), and the LRA atom table is re-registered
        for the lazy DPLL(T) loop.

        The result is a *counting* solver: ``check``/``push``/``pop``,
        hash and blocking-clause assertion, and ``bv_value`` over
        projection variables all work; :meth:`model` reconstruction of
        non-projection theory variables is not available (the original
        assertion stack is not part of the artifact).
        """
        solver = cls.__new__(cls)
        solver.sat = SatSolver()
        solver.sat.clone_from(compiled.snapshot)
        solver.builder = CnfBuilder(solver.sat,
                                    true_lit=compiled.true_lit)
        solver.blaster = BitBlaster(solver.builder)
        root_memo = solver.blaster._memo_stack[0]
        for var, bits in zip(compiled.projection,
                             compiled.projection_bits):
            root_memo[var] = list(bits)
        solver.preprocessor = Preprocessor()
        solver.lra = LraTheory()
        for atom, literal in compiled.atoms:
            solver.lra.register(atom, literal)
        solver._assertion_stack = [[]]
        solver._real_model = {}
        solver.stats = {"checks": 0, "theory_rounds": 0}
        return solver

    # ------------------------------------------------------------------
    # assertions and frames
    # ------------------------------------------------------------------
    def assert_term(self, term: Term) -> None:
        """Assert a Bool term (any supported theory mix)."""
        self._assertion_stack[-1].append(term)
        result = self.preprocessor.process(term)
        for atom, abstraction in result.new_atoms:
            literal = self.blaster.blast_bool(abstraction)
            self.lra.register(atom, literal)
        for assertion in result.assertions:
            self.blaster.assert_bool(assertion)

    def assert_all(self, terms) -> None:
        for term in terms:
            self.assert_term(term)

    def push(self) -> None:
        self.blaster.push()
        self.preprocessor.push()
        self.lra.push()
        self._assertion_stack.append([])

    def pop(self) -> None:
        if len(self._assertion_stack) == 1:
            raise RuntimeError("pop without matching push")
        self.blaster.pop()
        self.preprocessor.pop()
        self.lra.pop()
        self._assertion_stack.pop()

    @property
    def frame_depth(self) -> int:
        """Number of open frames (the hash ladder's rung count lives
        within this)."""
        return len(self._assertion_stack) - 1

    def set_retention(self, enabled: bool) -> None:
        """Toggle the SAT core's learnt-clause retention across pops.

        On by default; pact turns it off when ``PactConfig.incremental``
        is False (A/B benchmarking, regression baselines).
        """
        self.sat.retain_learnts = enabled

    def set_restart_policy(self, policy: str) -> None:
        """Select the SAT core's restart policy (``"luby"`` or
        ``"glucose"``).  Schedules never change verdicts, so estimates
        are invariant; the knob exists for performance A/B runs."""
        from repro.sat.kernel import RESTART_POLICIES
        if policy not in RESTART_POLICIES:
            raise ValueError(
                f"unknown restart policy {policy!r}; "
                f"pick from {RESTART_POLICIES}")
        self.sat.restart_policy = policy

    @property
    def retained_learnts(self) -> int:
        """How many learnt clauses survived frame pops so far."""
        return self.sat.stats["retained_learnts"]

    def assertions(self) -> list[Term]:
        return [t for frame in self._assertion_stack for t in frame]

    # ------------------------------------------------------------------
    # bit-level access (hashing, blocking clauses)
    # ------------------------------------------------------------------
    def ensure_bits(self, var: Term) -> list[int]:
        """Blast a BV variable (even if unconstrained) and return its SAT
        literals, LSB first.  pact calls this for every projection variable
        at the root frame so hashing and blocking always have bits."""
        if not (var.is_var() and var.sort.is_bv()):
            raise CounterError(f"projection variable must be a BV variable, "
                               f"got {var!r}")
        return self.blaster.blast_bv(var)

    def assert_xor_bits(self, literals: list[int], rhs: bool) -> None:
        """Add a native XOR row over SAT literals (from :meth:`ensure_bits`).

        Negative literals flip the required parity.
        """
        variables = []
        parity = rhs
        for literal in literals:
            if literal < 0:
                parity = not parity
                variables.append(-literal)
            else:
                variables.append(literal)
        self.sat.add_xor(variables, parity)

    def add_clause_lits(self, literals: list[int]) -> None:
        """Add a raw clause over SAT literals."""
        self.sat.add_clause(literals)

    def block_model(self, bits: list[int]) -> None:
        """Block the current model's values of ``bits`` (SAT literals,
        typically the flattened :meth:`ensure_bits` of the projection).

        The clause "some bit differs" goes in without backtracking to
        level 0: the SAT core backjumps to the clause's asserting level
        and the next :meth:`check` resumes the search from there
        (:meth:`repro.sat.kernel.PropagationKernel.add_blocking_clause`).
        """
        model_value = self.sat.model_value
        self.sat.add_blocking_clause(
            [-lit if model_value(lit) else lit for lit in bits])

    # ------------------------------------------------------------------
    # solving
    # ------------------------------------------------------------------
    def check(self, deadline: Deadline | None = None) -> bool:
        """Solve the current assertion stack.  True = SAT, False = UNSAT.

        Raises SolverTimeoutError on deadline expiry.
        """
        self.stats["checks"] += 1
        if deadline is None:
            deadline = Deadline.unlimited()
        while True:
            self.stats["theory_rounds"] += 1
            result = self.sat.solve(deadline=deadline)
            if result is False:
                return False
            if not self.lra.has_atoms():
                self._real_model = {}
                return True
            feasible, payload = self.lra.check(self.sat.model_value)
            if feasible:
                self._real_model = payload
                return True
            self.sat.add_clause(payload)

    # ------------------------------------------------------------------
    # models
    # ------------------------------------------------------------------
    def bv_value(self, var: Term) -> int:
        """Fast path: the value of a blasted BV variable."""
        bits = self.blaster.blast_bv(var)
        value = 0
        for position, literal in enumerate(bits):
            if self.sat.model_value(literal):
                value |= 1 << position
        return value

    def model(self) -> Model:
        """Snapshot the full model after a SAT answer."""
        internal = self._internal_assignment()
        assignment: dict[Term, object] = {}

        def value_of(term: Term):
            from repro.smt.evaluator import evaluate
            return evaluate(term, internal)

        for frame in self._assertion_stack:
            for assertion in frame:
                for var in free_variables(assertion):
                    if var in assignment:
                        continue
                    assignment[var] = self._user_value(var, internal,
                                                       value_of)
        return Model(assignment)

    def _internal_assignment(self) -> dict[Term, object]:
        """Values of every blasted/LRA variable (post-preprocessing vars)."""
        assignment: dict[Term, object] = {}
        for memo in self.blaster._memo_stack:
            for term, payload in memo.items():
                if term.op != Op.VAR:
                    continue
                if term.sort.is_bool():
                    assignment[term] = self.sat.model_value(payload)
                elif term.sort.is_bv():
                    value = 0
                    for position, literal in enumerate(payload):
                        if self.sat.model_value(literal):
                            value |= 1 << position
                    assignment[term] = value
        for var, value in self._real_model.items():
            assignment[var] = value
        return assignment

    def _user_value(self, var: Term, internal: dict, value_of):
        """Translate an original variable to its model value."""
        from repro.smt.model import default_value
        if var.sort.is_fp():
            bv_counterpart = self.preprocessor.fp.var_map.get(var)
            if bv_counterpart is None or bv_counterpart not in internal:
                return default_value(var.sort)
            return internal[bv_counterpart]
        if var.sort.is_array():
            converted = self.preprocessor.fp.var_map.get(var, var)
            table = self.preprocessor.arrays.reconstruct(converted, value_of)
            return ArrayValue(table, default=0)
        if var.sort.is_function():
            converted = self.preprocessor.fp.var_map.get(var, var)
            table = self.preprocessor.ufs.reconstruct(converted, value_of)
            return FunctionValue(table, default=0)
        if var in internal:
            return internal[var]
        return default_value(var.sort)
