"""The kernel speed overhaul, measured: blocking literals and friends.

Five workloads, each A/B-ing one axis of the overhaul with everything
else held fixed:

* **deep-trail BCP** (gated) — the regime blocking literals target:
  dense long-clause databases (the shape of a learnt-clause-heavy
  solver) at a deep trail, where most watcher visits land on satisfied
  clauses and the blocker check turns each into one list index plus one
  compare.  The schedule of enqueued literals is fixed and identical in
  both arms, so the propagation work is the same and the wall-clock
  ratio is a pure kernel measurement.  The acceptance gate lives here:
  median propagation-throughput ratio >= 1.2x.
* **short-clause honesty** (ungated) — k=3/4 databases, where the plain
  loop's habit of migrating satisfied watchers away beats the blocker
  loop's keep-in-place.  Reported so the headline number cannot hide
  the regression regime.
* **pact family A/B** — full production runs (xor / prime / shift)
  with the overhaul on vs. every feature off.  Estimates must be
  bit-identical: verdicts are search-path independent and the sampling
  schedule is a pure function of the seed tree and the verdicts.
* **frontier inprocessing A/B** — exact:cc on frontier instances with
  the full stage list vs. the pre-overhaul stages (no probe, no bce).
  Both arms must reproduce the analytic count exactly.
* **packed prototype honesty** (ungated) — the numpy array-packed BCP
  prototype against the watcher kernel on its worst shape (implication
  chains: whole-database rounds x chain depth) and its best (wide
  fan-out: one round vectorises thousands of implications).  The
  prototype loses the first decisively; the row is here so nobody
  mistakes it for a production path.

``KERNEL_BENCH_SMOKE=1`` shrinks every workload and skips the
throughput gate (CI smoke runners are too noisy to gate on wall-clock);
the schema of ``BENCH_kernel.json`` is identical in both modes.

Artifact: ``bench_results/kernel.txt``.
"""

import contextlib
import os
import random
import time

import pytest

from benchmarks.conftest import emit, emit_json
from repro.api import CountRequest, Problem, resolve
from repro.benchgen.suite import build_suite
from repro.compile import reset_compile_memo, simplify
from repro.core import PactConfig, pact_count
from repro.harness.report import format_table
from repro.sat import kernel
from repro.sat.packed import HAVE_NUMPY, PackedPropagator
from repro.sat.solver import SatSolver
from repro.sat.types import UNASSIGNED
from repro.smt import bv_ult, bv_val, bv_var
from repro.utils.stats import median

SMOKE = os.environ.get("KERNEL_BENCH_SMOKE") == "1"
GATE_RATIO = 1.2
DEPTH_FRAC = 0.75
BURST = 12
REPS = 2 if SMOKE else 7

# (name, num_vars, clause_width, num_clauses, seed, trials): dense
# long-clause databases — the learnt-DB-heavy regime the blocker
# optimises.  Trials are sized for stable best-of-REPS walls.
BCP_SHAPES = [
    ("deep-k7", 150, 7, 8000, 1, 500),
    ("deep-k8", 160, 8, 9000, 2, 400),
    ("deep-k6", 140, 6, 7000, 3, 500),
    ("deep-k9", 180, 9, 9000, 4, 400),
    ("deep-k7b", 170, 7, 8500, 5, 450),
]
SHORT_SHAPES = [
    ("short-k3", 300, 3, 1200, 11, 400),
    ("short-k4", 260, 4, 2600, 12, 400),
]
if SMOKE:
    BCP_SHAPES = [(n, v, k, m // 4, s, 40)
                  for n, v, k, m, s, _ in BCP_SHAPES[:2]]
    SHORT_SHAPES = [(n, v, k, m // 2, s, 40)
                    for n, v, k, m, s, _ in SHORT_SHAPES[:1]]

PACT_WIDTH = 10
PACT_SEED = 9
PACT_ITERATIONS = 3
PACT_FAMILIES = ("xor",) if SMOKE else ("xor", "prime", "shift")
LEGACY_STAGES = ("units", "equiv", "bve", "support")
FRONTIER_BUDGET = 30.0
FRONTIER_MIN_COUNT = 5_000

_bcp_rows = []
_bcp_ratios = []
_short_rows = []
_short_ratios = []
_pact_rows = []
_frontier_rows = []
_packed_rows = []


@contextlib.contextmanager
def features(**flags):
    """Force kernel feature flags on every solver built in the block.

    ``use_blockers`` selects the watcher representation and must be set
    before the first clause is watched, hence the ``__init__`` hook
    rather than post-hoc attribute assignment.
    """
    orig_init = kernel.PropagationKernel.__init__

    def patched(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        for key, value in flags.items():
            setattr(self, key, value)

    kernel.PropagationKernel.__init__ = patched
    try:
        yield
    finally:
        kernel.PropagationKernel.__init__ = orig_init


LEGACY_FEATURES = dict(use_blockers=False, reduce_policy="activity",
                       restart_policy="luby")


def _random_ksat(num_vars, width, num_clauses, seed):
    rng = random.Random(seed)
    return [[v if rng.random() < 0.5 else -v
             for v in rng.sample(range(1, num_vars + 1), width)]
            for _ in range(num_clauses)]


def _build_deep(num_vars, clauses, use_blockers):
    """A solver at a deep, conflict-free trail (~DEPTH_FRAC of vars
    assigned across successive decision levels)."""
    with features(use_blockers=use_blockers):
        solver = SatSolver()
        for _ in range(num_vars):
            solver.new_var()
        for clause in clauses:
            solver.add_clause(clause)
    rng = random.Random(23)
    order = list(range(1, num_vars + 1))
    rng.shuffle(order)
    assigned = 0
    for var in order:
        if assigned >= DEPTH_FRAC * num_vars:
            break
        if solver._assigns[var] != UNASSIGNED:
            continue
        solver._trail_lim.append(len(solver._trail))
        before = len(solver._trail)
        solver._enqueue(var if rng.random() < 0.5 else -var, None)
        if solver._propagate() is not None:
            solver._backtrack(len(solver._trail_lim) - 1)
        else:
            assigned += len(solver._trail) - before
    return solver, len(solver._trail_lim)


def _bcp_pass(solver, base_level, schedule):
    """One pass of fixed-schedule decision bursts at the deep trail;
    returns (propagations, wall)."""
    props_before = solver.stats["propagations"]
    start = time.monotonic()
    for step in schedule:
        solver._trail_lim.append(len(solver._trail))
        for var, positive in step:
            if solver._assigns[var] == UNASSIGNED:
                solver._enqueue(var if positive else -var, None)
        solver._propagate()
        solver._backtrack(base_level)
    wall = time.monotonic() - start
    return solver.stats["propagations"] - props_before, max(wall, 1e-9)


def _ab_throughput(num_vars, width, num_clauses, seed, trials):
    """Blockers on vs off over one fixed schedule, so the propagation
    fixpoints — and hence the work — match.  The arms run in REPS
    interleaved rounds (the one that goes first alternates) and each
    keeps its best wall: load on a shared host only ever adds time,
    and alternation spreads drift over both arms."""
    clauses = _random_ksat(num_vars, width, num_clauses, seed)
    solvers = {arm: _build_deep(num_vars, clauses, arm)
               for arm in (True, False)}
    rng = random.Random(77)
    schedule = [[(rng.randint(1, num_vars), rng.random() < 0.5)
                 for _ in range(BURST)]
                for _ in range(trials)]
    props, best = {}, {}
    for round_index in range(REPS):
        order = (True, False) if round_index % 2 == 0 else (False, True)
        for arm in order:
            solver, base = solvers[arm]
            props[arm], wall = _bcp_pass(solver, base, schedule)
            best[arm] = min(best.get(arm, wall), wall)
    ratio = (props[True] / best[True]) / (props[False] / best[False])
    row = [props[True], f"{best[True]:.3f}",
           props[False], f"{best[False]:.3f}"]
    return ratio, row


@pytest.mark.parametrize("shape", BCP_SHAPES, ids=lambda s: s[0])
def test_deep_trail_bcp(shape):
    name, num_vars, width, num_clauses, seed, trials = shape
    ratio, row = _ab_throughput(num_vars, width, num_clauses, seed,
                                trials)
    _bcp_ratios.append(ratio)
    _bcp_rows.append(
        [name, f"{width}", num_clauses] + row + [f"{ratio:.2f}x"])


@pytest.mark.parametrize("shape", SHORT_SHAPES, ids=lambda s: s[0])
def test_short_clause_honesty(shape):
    name, num_vars, width, num_clauses, seed, trials = shape
    ratio, row = _ab_throughput(num_vars, width, num_clauses, seed,
                                trials)
    _short_ratios.append(ratio)
    _short_rows.append(
        [name, f"{width}", num_clauses] + row + [f"{ratio:.2f}x"])


@pytest.mark.parametrize("family", PACT_FAMILIES)
def test_pact_estimates_bit_identical(family):
    bound = (1 << PACT_WIDTH) - (1 << (PACT_WIDTH - 3))
    config = PactConfig(family=family, seed=PACT_SEED,
                        iteration_override=PACT_ITERATIONS, timeout=300)
    results = {}
    for arm, flags in (("overhaul", {}), ("legacy", LEGACY_FEATURES)):
        reset_compile_memo()
        x = bv_var(f"bench_{family}", PACT_WIDTH)
        start = time.monotonic()
        with features(**flags):
            result = pact_count(
                [bv_ult(x, bv_val(bound, PACT_WIDTH))], [x], config)
        results[arm] = (result, time.monotonic() - start)
        assert result.solved
    modern, modern_wall = results["overhaul"]
    legacy, legacy_wall = results["legacy"]
    # The contract the whole overhaul rests on: verdicts (and therefore
    # the seed-driven sampling schedule and the estimate) are invariant
    # under the kernel's internals.
    assert modern.estimate == legacy.estimate
    _pact_rows.append([
        family, modern.estimate, f"{modern_wall:.2f}",
        f"{legacy_wall:.2f}", modern.solver_calls, legacy.solver_calls,
    ])


def _frontier_cases():
    pool = [instance
            for instance in build_suite(per_logic=2, base_seed=29,
                                        widths=(15, 17))
            if (instance.known_count or 0) >= FRONTIER_MIN_COUNT]
    seen_logics = set()
    cases = []
    for instance in pool:
        if instance.logic not in seen_logics:
            seen_logics.add(instance.logic)
            cases.append(instance)
    return cases[:1 if SMOKE else 2]


@pytest.mark.parametrize("instance", _frontier_cases(),
                         ids=lambda instance: instance.name)
def test_frontier_inprocessing(instance):
    walls = {}
    for arm, stages in (("full", simplify.STAGES),
                        ("legacy", LEGACY_STAGES)):
        saved = simplify.STAGES
        simplify.STAGES = stages
        try:
            reset_compile_memo()
            problem = Problem.from_instance(instance)
            impl = resolve("exact:cc")
            start = time.monotonic()
            response = impl.count(
                problem, CountRequest(counter="exact:cc",
                                      timeout=FRONTIER_BUDGET))
            walls[arm] = time.monotonic() - start
        finally:
            simplify.STAGES = saved
        # probing/bce are count-preserving: both arms must land on the
        # analytic count exactly
        assert response.solved and response.exact
        assert response.estimate == instance.known_count
    _frontier_rows.append([
        instance.name, instance.known_count,
        f"{walls['full']:.2f}", f"{walls['legacy']:.2f}",
    ])


def _time_packed(propagator, roots, trials):
    start = time.monotonic()
    for _ in range(trials):
        propagator.propagate(roots)
    return (time.monotonic() - start) / trials


def _time_kernel(num_vars, clauses, roots, trials):
    solver = SatSolver()
    for _ in range(num_vars):
        solver.new_var()
    for clause in clauses:
        solver.add_clause(clause)
    start = time.monotonic()
    for _ in range(trials):
        solver._trail_lim.append(len(solver._trail))
        for lit in roots:
            if solver._assigns[abs(lit)] == UNASSIGNED:
                solver._enqueue(lit, None)
        assert solver._propagate() is None
        solver._backtrack(0)
    return (time.monotonic() - start) / trials


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
def test_packed_prototype_honesty():
    chain_n = 150 if SMOKE else 600
    fan_n = 800 if SMOKE else 3000
    trials = 10 if SMOKE else 40
    shapes = [
        ("chain", chain_n,
         [[-i, i + 1] for i in range(1, chain_n)], [1]),
        ("fan-out", fan_n,
         [[-1, j] for j in range(2, fan_n + 1)], [1]),
    ]
    for name, num_vars, clauses, roots in shapes:
        packed = PackedPropagator(
            kernel.ClauseDB(num_vars, clauses, []))
        packed_wall = _time_packed(packed, roots, trials)
        kernel_wall = _time_kernel(num_vars, clauses, roots, trials)
        ratio = kernel_wall / max(packed_wall, 1e-9)
        _packed_rows.append([
            name, num_vars, f"{packed_wall * 1e3:.2f}",
            f"{kernel_wall * 1e3:.2f}", f"{ratio:.2f}x",
        ])


def test_kernel_report(results_dir):
    assert _bcp_rows and _short_rows and _pact_rows and _frontier_rows, \
        "workload benches run first"
    bcp_table = format_table(
        ["shape", "k", "clauses", "props on", "wall on",
         "props off", "wall off", "thr ratio"],
        _bcp_rows,
        title=("Deep-trail fixed-schedule BCP, blocking literals "
               "on/off (gated: median >= "
               f"{GATE_RATIO:.1f}x"
               f"{', smoke: gate skipped' if SMOKE else ''})"))
    short_table = format_table(
        ["shape", "k", "clauses", "props on", "wall on",
         "props off", "wall off", "thr ratio"],
        _short_rows,
        title=("Short-clause regime (ungated): the regression the "
               "headline must not hide"))
    pact_table = format_table(
        ["family", "estimate", "overhaul s", "legacy s",
         "calls on", "calls off"],
        _pact_rows,
        title=("pact production A/B: estimates bit-identical, "
               "overhaul vs all features off"))
    frontier_table = format_table(
        ["instance", "count", "full-stages s", "legacy-stages s"],
        _frontier_rows,
        title=("exact:cc frontier, inprocessing (probe+bce) vs legacy "
               "stage list: counts exact in both arms"))
    tables = [bcp_table, short_table, pact_table, frontier_table]
    if _packed_rows:
        tables.append(format_table(
            ["shape", "vars", "packed ms", "kernel ms", "packed gain"],
            _packed_rows,
            title=("Packed prototype honesty: watcher kernel wall / "
                   "packed wall (<1x: packed loses)")))
    bcp_median = median(_bcp_ratios)
    short_median = median(_short_ratios)
    summary = (
        f"median deep-trail BCP throughput ratio (blockers on/off): "
        f"{bcp_median:.2f}x over {len(_bcp_ratios)} shapes; "
        f"short-clause regime median {short_median:.2f}x; "
        f"{len(_pact_rows)} pact families and {len(_frontier_rows)} "
        f"frontier instances bit-identical across arms")
    emit(results_dir, "kernel.txt", "\n".join(tables) + "\n" + summary)
    metrics = {
        "bcp_speedup_median": round(bcp_median, 3),
        "bcp_shapes": len(_bcp_ratios),
        "short_clause_median": round(short_median, 3),
        "pact_families_identical": len(_pact_rows),
        "frontier_instances_exact": len(_frontier_rows),
        "smoke": SMOKE,
    }
    for row in _packed_rows:
        key = f"packed_{row[0].replace('-', '_')}_gain"
        metrics[key] = float(row[4].rstrip("x"))
    emit_json(results_dir, "kernel", metrics)
    # The tentpole's acceptance gate: blocking literals must buy a
    # >=1.2x median propagation-throughput win in the regime they
    # target.  Smoke mode (noisy CI runners, shrunken workloads) checks
    # schema and bit-identity only.
    if not SMOKE:
        assert bcp_median >= GATE_RATIO
