"""Section III-F: the incremental hash-ladder layer, measured.

A/B on the benchgen suite: ``incremental=False`` reproduces the seed
implementation's behaviour (search start 1 every iteration, learnt
clauses deleted on every pop, full prefix re-asserted per probe) while
``incremental=True`` runs the hash ladder + learnt-clause retention +
warm-started galloping.  The contract: per-iteration estimates are
bit-identical on every instance, total ``solver_calls`` drop, and the
median wall-clock improves; the artifact
(``bench_results/incremental.txt``) records all three.

Two families are measured because they profit differently: ``xor`` has
deep boundaries (one bit per hash), so the warm start cuts probes;
``prime`` re-asserts multiplier/modulo circuits per probe, so the
ladder's delta-assertion avoids re-blasting whole circuits.

The prime rows save no solver call, and that is expected: a prime hash
splits the space into p cells (p the smallest prime above 2^slice
width), not two, so every prime boundary here is 1 or 2.  The cold gallop (start 1) and the warm one (start = the
previous boundary) then probe the same indices — {1, 2} when the
boundary is 2, {1} when it is 1 — and make the same calls.  The bench
asserts both facts; the prime rows' wall ratio measures only the
ladder's re-assertion and retention savings.

Wall-clock is measured in ``ROUNDS`` interleaved rounds per case (the
arm that runs first alternates) and each arm keeps its best wall: load
on a shared host only ever adds time, and alternation spreads drift and
warm-up over both arms.
"""

import time

import pytest

import repro.core.pact as pact_module
from benchmarks.conftest import emit, emit_json
from repro.benchgen.suite import build_suite
from repro.core import PactConfig, pact_count
from repro.harness.report import format_table
from repro.utils.stats import median

ITERATIONS = 3
SEED = 11
TIMEOUT = 120
# Wall-clock below this measures process noise, not solver work
# (instances whose projected space is small count exactly and never
# hash — the incremental layer is not in play).
NOISE_FLOOR = 0.05
ROUNDS = 3
_rows = []
_speedups = []
_totals = {"rebuild": 0, "ladder": 0}


def _cases():
    cases = []
    for family, width in (("xor", 16), ("prime", 13)):
        for instance in build_suite(per_logic=1, base_seed=3,
                                    widths=(width,)):
            cases.append((f"{family}:{instance.name}", family,
                          instance.assertions, instance.projection))
    return cases


def _measure(assertions, projection, family, incremental):
    config = PactConfig(family=family, seed=SEED,
                        iteration_override=ITERATIONS, timeout=TIMEOUT,
                        incremental=incremental)
    start = time.monotonic()
    result = pact_count(list(assertions), list(projection), config)
    return result, time.monotonic() - start


@pytest.mark.parametrize("case", _cases(), ids=lambda case: case[0])
def test_incremental_vs_rebuild(benchmark, monkeypatch, case):
    name, family, assertions, projection = case
    # (start, boundary, probed indices) of every boundary search in
    # each arm's first round
    searches = {False: [], True: []}
    find_boundary = pact_module.find_boundary
    recording_arm = [None]

    def recording(count_at, start, max_index):
        index, cell_count, cache = find_boundary(count_at, start,
                                                 max_index)
        if recording_arm[0] is not None:
            searches[recording_arm[0]].append(
                (start, index, sorted(i for i in cache if i)))
        return index, cell_count, cache

    monkeypatch.setattr(pact_module, "find_boundary", recording)

    def rounds():
        results, walls = {}, {False: [], True: []}
        for round_index in range(ROUNDS):
            order = (False, True) if round_index % 2 == 0 else (True,
                                                                False)
            for incremental in order:
                recording_arm[0] = None if round_index else incremental
                result, wall = _measure(assertions, projection, family,
                                        incremental)
                walls[incremental].append(wall)
                first = results.setdefault(incremental, result)
                # every round repeats the same seed-pure work
                assert result.estimates == first.estimates
                assert result.solver_calls == first.solver_calls
        return ((results[False], min(walls[False])),
                (results[True], min(walls[True])))

    (rebuild, rebuild_wall), (ladder, ladder_wall) = benchmark.pedantic(
        rounds, rounds=1, iterations=1)
    assert rebuild.solved and ladder.solved
    # The determinism contract: ladder + warm start + retention never
    # change per-iteration estimates.
    assert ladder.estimates == rebuild.estimates
    if family == "prime":
        # Boundaries 1 or 2: cold and warm gallops probe the same
        # indices, so the ladder cannot save a call (module docstring).
        assert all(index in (1, 2) for _, index, _ in searches[True])
        assert ([probed for *_, probed in searches[False]]
                == [probed for *_, probed in searches[True]])
        assert ladder.solver_calls == rebuild.solver_calls
    _totals["rebuild"] += rebuild.solver_calls
    _totals["ladder"] += ladder.solver_calls
    speedup = rebuild_wall / max(ladder_wall, 1e-9)
    measured = rebuild_wall >= NOISE_FLOOR
    if measured:
        _speedups.append(speedup)
    _rows.append([
        name, rebuild.solver_calls, ladder.solver_calls,
        f"{rebuild_wall:.2f}", f"{ladder_wall:.2f}",
        f"{speedup:.2f}x" + ("" if measured else " (noise)"),
    ])


def test_incremental_report(results_dir):
    assert _rows, "per-instance benches must run first"
    table = format_table(
        ["family:instance", "calls (rebuild)", "calls (ladder)",
         "wall rebuild s", "wall ladder s", "speedup"],
        _rows,
        title=("Section III-F: incremental ladder + learnt retention + "
               f"warm start vs rebuild (numIt={ITERATIONS}, "
               f"seed={SEED}; best wall of {ROUNDS} interleaved "
               "rounds)"))
    summary = (
        f"total solver calls: {_totals['rebuild']} -> {_totals['ladder']}"
        f" ({100 * (1 - _totals['ladder'] / max(1, _totals['rebuild'])):.0f}%"
        " saved)\n"
        f"median speedup: {median(_speedups):.2f}x over "
        f"{len(_speedups)} measured instances")
    emit(results_dir, "incremental.txt", table + "\n" + summary)
    emit_json(results_dir, "incremental", {
        "solver_calls_rebuild": _totals["rebuild"],
        "solver_calls_ladder": _totals["ladder"],
        "calls_saved_fraction": round(
            1 - _totals["ladder"] / max(1, _totals["rebuild"]), 4),
        "median_speedup": round(median(_speedups), 3),
    })
    # A bad warm hint may cost a probe on one instance; across the suite
    # the call totals must drop meaningfully — this is deterministic
    # (probe schedules are seed-pure), so the gate is tight.
    assert _totals["ladder"] <= 0.92 * _totals["rebuild"]
    # Wall-clock is noisy on loaded single-CPU runners: the measured
    # median sits around 1.1-1.2x (the target band); gate conservatively
    # so the bench flags real regressions without flaking.
    assert median(_speedups) >= 1.1
