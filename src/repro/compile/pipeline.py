"""The staged Problem->CNF compile pipeline.

``compile_problem`` runs three stages and returns an immutable
:class:`repro.compile.artifact.CompiledProblem`:

1. **preprocess** — the existing term pipeline (FP->BV, arrays/UF->
   Ackermann, real atoms -> Boolean abstraction), driven through a
   scratch :class:`repro.smt.solver.SmtSolver`;
2. **bitblast** — eager Tseitin blasting of the discrete core plus
   ``ensure_bits`` for every projection variable (the projection->bit
   map is fixed here, *before* simplification, so hash draws are
   independent of what the simplifier does);
3. **simplify** — projected-count-preserving CNF simplification
   (:mod:`repro.compile.simplify`), skippable with ``simplify=False``
   or narrowed with ``stages``.  A simplified artifact is then renumbered
   densely (:func:`compact_variables`): variables the simplifier
   eliminated leave it, so the SAT core never decides them.

Counters reconstruct a solver from the artifact with
:meth:`repro.smt.solver.SmtSolver.from_compiled` — linear in the clause
database — instead of re-running stages 1-2 per iteration, worker or
portfolio arm.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.compile.artifact import CompiledProblem, CompileStats
from repro.compile.simplify import STAGES, run_stages
from repro.core.slicing import dedupe_projection
from repro.errors import CounterError
from repro.sat.solver import SatSnapshot
from repro.smt.solver import SmtSolver
from repro.smt.terms import Term

__all__ = ["compact_variables", "compile_problem"]


def compact_variables(snapshot: SatSnapshot, protected: set[int]
                      ) -> tuple[SatSnapshot, Callable[[int], int]]:
    """Renumber ``snapshot`` over the variables it still uses.

    Keeps every variable that occurs in a clause or XOR row, plus the
    ``protected`` ones; root units of dropped variables go with them
    (a variable on no constraint cannot change the projected count).
    The renumbering is monotone, so the kept variables keep their
    relative order — and with it VSIDS tie-breaking.  Returns the
    compacted snapshot and the old->new map of kept literals.
    """
    used = set(protected)
    for clause in snapshot.clauses:
        used.update(abs(lit) for lit in clause)
    for variables, _rhs in snapshot.xors:
        used.update(variables)
    new_of = [0] * (snapshot.num_vars + 1)
    for new, old in enumerate(sorted(used), start=1):
        new_of[old] = new

    def lit(old: int) -> int:
        return new_of[old] if old > 0 else -new_of[-old]

    compact = SatSnapshot(
        num_vars=len(used),
        clauses=tuple(tuple(lit(q) for q in clause)
                      for clause in snapshot.clauses),
        units=tuple(lit(q) for q in snapshot.units if new_of[abs(q)]),
        xors=tuple((tuple(new_of[v] for v in variables), rhs)
                   for variables, rhs in snapshot.xors),
        ok=snapshot.ok)
    return compact, lit


def compile_problem(assertions, projection, *, simplify: bool = True,
                    stages=STAGES, digest: str = "") -> CompiledProblem:
    """Compile (assertions, projection) into a :class:`CompiledProblem`.

    ``digest`` names the artifact (callers pass the script digest the
    memo and the cache key on); ``stages`` narrows the simplifier to a
    subset of :data:`repro.compile.simplify.STAGES` (the property tests
    exercise each prefix).
    """
    start = time.monotonic()
    if isinstance(assertions, Term):
        assertions = [assertions]
    projection = dedupe_projection(list(projection))
    if not projection:
        raise CounterError("projection set must not be empty")

    # stages 1+2: preprocess + bitblast through a scratch solver
    solver = SmtSolver()
    solver.assert_all(list(assertions))
    projection_bits = []
    for var in projection:
        projection_bits.append(tuple(solver.ensure_bits(var)))
    atoms = tuple((atom, literal)
                  for atom, _linear, literal in solver.lra._atoms)
    true_lit = solver.builder.true_lit
    raw = solver.sat.snapshot()

    stats = CompileStats(raw_clauses=len(raw.clauses),
                         raw_units=len(raw.units))
    flat_bits = [lit for bits in projection_bits for lit in bits]
    support = tuple(range(len(flat_bits)))

    if simplify:
        frozen = {abs(lit) for lit in flat_bits}
        frozen.update(abs(literal) for _atom, literal in atoms)
        frozen.add(abs(true_lit))
        snapshot, support = run_stages(raw, frozen, flat_bits,
                                       stages=stages, stats=stats)
        stats.stages = tuple(stage for stage in STAGES if stage in stages)
        snapshot, lit = compact_variables(snapshot, frozen)
        projection_bits = [tuple(lit(q) for q in bits)
                           for bits in projection_bits]
        atoms = tuple((atom, lit(literal)) for atom, literal in atoms)
        true_lit = lit(true_lit)
    else:
        snapshot = raw

    stats.vars = snapshot.num_vars
    stats.clauses = len(snapshot.clauses)
    stats.xors = len(snapshot.xors)
    stats.seconds = time.monotonic() - start
    return CompiledProblem(
        digest=digest, snapshot=snapshot, true_lit=true_lit,
        projection=tuple(projection),
        projection_bits=tuple(projection_bits), atoms=atoms,
        support=support, simplified=bool(simplify), stats=stats)
