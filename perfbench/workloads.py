"""The benchmark's inputs, generated from the workload seed.

Every op carries its own reference answer, computed here without the
counter under test: benchgen's brute-force count of one instance, or the
product of such counts for a conjunction of independent parts.  The
program only ever sees the SMT-LIB text.

Why each workload (the layer map in README.md says what each should
move):

* ``pact-prime`` — the paper's word-level hash.  Most of an op is the
  SAT kernel solving modular-arithmetic CNF; a kernel or hash-encoding
  change shows here, a compile, closure or serve change should not.
* ``exact-cc`` — conjunctions of independent parts.  Compile, component
  splitting, the component cache and the eager LRA closure do the work;
  the pact kernel loop does none.
* ``serve-mixed`` — the only path through ``pact serve``: HTTP, the
  admission queue, the result store, the XOR engine of the default
  counter.  A writer connection sends fresh ``pact:xor`` scripts; a
  reader connection repeats answered scripts (store reads) and sends a
  fresh ``exact:cc`` script every sixth request, while the writer's
  counts run.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass

from repro.benchgen.generators import GENERATORS
from repro.benchgen.suite import LOGICS
from repro.smt.printer import write_script

EPSILON = 0.8
DELTA = 0.2
#: Seed of every pact count (the workload seed picks the instances).
COUNT_SEED = 1
#: Algorithm 1's enumeration threshold at EPSILON.  A count at or below
#: it is answered by enumeration alone and never hashes, so the pact
#: workloads keep only instances above it.
PACT_THRESH = 1 + math.ceil(
    9.84 * (1 + EPSILON / (1 + EPSILON)) * (1 + 1 / EPSILON) ** 2)

PRIME_WIDTH = 8
PRIME_ITERATIONS = 3
PRIME_POOL = 150

LRA_LOGICS = ("QF_BVFPLRA", "QF_ABVFPLRA")
PLAIN_LOGICS = tuple(logic for logic in LOGICS if logic not in LRA_LOGICS)
CC_WIDTH = 12
CC_PARTS_PER_LOGIC = 16
CC_POOL = 240

SERVE_XOR_WIDTH = 8
SERVE_XOR_ITERATIONS = 3
SERVE_XOR = 240
SERVE_CC_WIDTH = 11
SERVE_CC = 160
SERVE_CC_EVERY = 6
SERVE_READ_LAG = 6

_CC_DETAIL = re.compile(r"\b(decisions|components|cache_hits)=(\d+)")
_TELEMETRY_KEYS = ("pact.propagations", "pact.conflicts", "pact.decisions",
                   "cc.propagations", "cc.conflicts")


def work_counts(counter: str, solver_calls: int, detail: str,
                before: dict | None = None,
                after: dict | None = None) -> dict:
    """Seed-pure work of one op: solver calls, the kernel telemetry
    deltas when ``before``/``after`` snapshots are given, and for
    ``exact:cc`` the search's decisions, components and cache hits
    (from the response's detail)."""
    work = {"solver_calls": solver_calls}
    if before is not None and after is not None:
        for key in _TELEMETRY_KEYS:
            work[key] = after.get(key, 0) - before.get(key, 0)
    if counter == "exact:cc":
        for key, value in _CC_DETAIL.findall(detail or ""):
            work[f"cc.{key}"] = int(value)
    return work


@dataclass(frozen=True)
class Op:
    """One counting request and the answer it must produce."""

    op_id: int
    name: str
    script: str
    counter: str
    reference: int
    exact: bool

    def request_fields(self) -> dict:
        """The CountRequest fields of this op (also the /count body)."""
        if self.counter == "exact:cc":
            return {"counter": "exact:cc"}
        iterations = (PRIME_ITERATIONS if self.counter == "pact:prime"
                      else SERVE_XOR_ITERATIONS)
        return {"counter": self.counter, "epsilon": EPSILON,
                "delta": DELTA, "seed": COUNT_SEED,
                "iteration_override": iterations}

    def check(self, estimate) -> bool:
        """Exact counts must match; pact estimates must lie in the PAC
        envelope [reference/(1+eps), reference*(1+eps)]."""
        if not isinstance(estimate, int):
            return False
        if self.exact:
            return estimate == self.reference
        return (estimate * (1 + EPSILON) >= self.reference
                and estimate <= self.reference * (1 + EPSILON))


def _instance(rng: random.Random, logic: str, width: int, minimum: int):
    """A fresh benchgen instance whose brute-force count is >= minimum."""
    while True:
        instance = GENERATORS[logic](rng.randrange(1_000_000), width=width)
        if instance.known_count >= minimum:
            return instance


def _spread_order(size: int) -> list[int]:
    """A permutation of ``range(size)`` whose every prefix is spread
    evenly over the range (van der Corput points, nearest free slot)."""
    free = list(range(size))
    order = []
    for k in range(1, size + 1):
        point, base, n = 0.0, 0.5, k
        while n:
            point += base * (n & 1)
            n >>= 1
            base /= 2
        slot = min(free, key=lambda index: abs(index - point * size))
        free.remove(slot)
        order.append(slot)
    return order


def _by_count(rng: random.Random, width: int, per_logic: int) -> list:
    """``per_logic`` instances of every logic above the enumeration
    threshold, logics in rotation.

    A pact op's cost grows with the instance's count (more solutions,
    more solver calls per cell), so each logic's instances are sorted by
    count and served in :func:`_spread_order`: whatever number of ops a
    run completes covers each logic's count range evenly, and runs with
    different seeds draw comparable samples.
    """
    order = _spread_order(per_logic)
    queues = []
    for logic in LOGICS:
        instances = sorted(
            (_instance(rng, logic, width, PACT_THRESH + 1)
             for _ in range(per_logic)),
            key=lambda instance: (instance.known_count, instance.name))
        queues.append([instances[slot] for slot in order])
    return [queues[index % len(LOGICS)][index // len(LOGICS)]
            for index in range(per_logic * len(LOGICS))]


def pact_prime_ops(seed: int) -> list[Op]:
    """Cold ``pact:prime`` counts, cycling through the six logics."""
    rng = random.Random(f"pact-prime:{seed}")
    return [Op(op_id, instance.name, instance.to_smtlib(), "pact:prime",
               instance.known_count, exact=False)
            for op_id, instance in enumerate(
                _by_count(rng, PRIME_WIDTH, PRIME_POOL // len(LOGICS)))]


def exact_cc_ops(seed: int) -> list[Op]:
    """Cold ``exact:cc`` counts of four independent conjoined parts.

    Each op conjoins one part with lazy LRA atoms (alternating between
    the two LRA logics, so the eager closure always has work) and three
    parts of distinct plain logics.  Parts carry their logic and seed in
    every variable name, so the conjunction's variables are disjoint and
    its projected count is the product of the parts' counts.
    """
    rng = random.Random(f"exact-cc:{seed}")
    parts = {logic: [_instance(rng, logic, CC_WIDTH, 2)
                     for _ in range(CC_PARTS_PER_LOGIC)]
             for logic in LOGICS}
    ops = []
    for op_id in range(CC_POOL):
        skipped = PLAIN_LOGICS[(op_id // 2) % len(PLAIN_LOGICS)]
        logics = [LRA_LOGICS[op_id % 2]] + [
            logic for logic in PLAIN_LOGICS if logic != skipped]
        chosen = [rng.choice(parts[logic]) for logic in logics]
        reference = 1
        for part in chosen:
            reference *= part.known_count
        script = write_script(
            [term for part in chosen for term in part.assertions],
            projection=[var for part in chosen for var in part.projection])
        ops.append(Op(op_id, f"cc{op_id:04d}", script, "exact:cc",
                      reference, exact=True))
    return ops


def serve_fresh_ops(seed: int) -> list[Op]:
    """Fresh small scripts for serve-mixed: SERVE_XOR ``pact:xor`` counts
    (above the enumeration threshold, so the XOR engine hashes), then
    SERVE_CC ``exact:cc`` counts, logics in rotation."""
    rng = random.Random(f"serve-mixed:{seed}")
    xor = _by_count(rng, SERVE_XOR_WIDTH, SERVE_XOR // len(LOGICS))
    cc = [_instance(rng, LOGICS[index % len(LOGICS)], SERVE_CC_WIDTH, 2)
          for index in range(SERVE_CC)]
    return ([Op(index, instance.name, instance.to_smtlib(), "pact:xor",
                instance.known_count, exact=False)
             for index, instance in enumerate(xor)]
            + [Op(len(xor) + index, instance.name, instance.to_smtlib(),
                  "exact:cc", instance.known_count, exact=True)
               for index, instance in enumerate(cc)])


def serve_plans(seed: int) -> dict[str, list[tuple[int, bool]]]:
    """Each connection's requests as (fresh-script index, is_fresh).

    The writer sends the ``pact:xor`` scripts in order.  The reader
    sends the next ``exact:cc`` script every SERVE_CC_EVERY-th request;
    its other requests repeat answered scripts, alternately one of the
    writer's (drawn from the first ``k // SERVE_READ_LAG + 1``; the
    reader waits, untimed, if the writer has not answered it yet) and
    one of its own earlier ``exact:cc`` scripts.  So the reader's hits
    run while the writer's counts run.
    """
    rng = random.Random(f"serve-plans:{seed}")
    writer = [(index, True) for index in range(SERVE_XOR)]
    reader = []
    for read in range(SERVE_CC * SERVE_CC_EVERY):
        own_fresh = read // SERVE_CC_EVERY
        if read % SERVE_CC_EVERY == SERVE_CC_EVERY - 1:
            reader.append((SERVE_XOR + own_fresh, True))
        elif read % 2 == 0 or own_fresh == 0:
            limit = min(read // SERVE_READ_LAG + 1, SERVE_XOR)
            reader.append((rng.randrange(limit), False))
        else:
            reader.append((SERVE_XOR + rng.randrange(own_fresh), False))
    return {"writer": writer, "reader": reader}
