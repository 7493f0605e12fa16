"""Differential tests for trail-keeping model blocking.

``PropagationKernel.add_blocking_clause`` blocks the current model by
backjumping to the blocking clause's asserting level instead of
restarting at level 0, and the next ``solve`` resumes from that trail.
Any other mutation (``push``/``pop``/``add_clause``/``add_xor``/
``snapshot``) must drop the kept trail and take the level-0 path.

These tests drive random CNF + XOR formulas with a random projection
through interleaved frames, clauses, XOR rows and partial enumerations,
and check every verdict and the final projected model count against
brute force.
"""

import itertools

from hypothesis import given, settings, strategies as st

from repro.sat import SatSolver
from repro.sat.types import TRUE


def satisfies(assignment, clauses, xors) -> bool:
    return (all(any(assignment[abs(lit)] == (lit > 0) for lit in clause)
                for clause in clauses)
            and all(sum(assignment[v] for v in variables) % 2
                    == (1 if rhs else 0)
                    for variables, rhs in xors))


def projected_count(num_vars, clauses, xors, projection) -> int:
    seen = set()
    for bits in itertools.product([False, True], repeat=num_vars):
        assignment = (False,) + bits
        if satisfies(assignment, clauses, xors):
            seen.add(tuple(assignment[v] for v in projection))
    return len(seen)


def blocking_literals(solver, projection) -> list[int]:
    return [-v if solver.model_value(v) else v for v in projection]


def enumerate_all(solver, projection) -> int:
    """Count projected models in a fresh frame, blocking in place."""
    solver.push()
    count = 0
    while solver.solve():
        count += 1
        # a model found twice would loop forever: fail instead
        assert count <= 2 ** len(projection)
        solver.add_blocking_clause(blocking_literals(solver, projection))
    solver.pop()
    return count


@st.composite
def scripts(draw):
    num_vars = draw(st.integers(min_value=2, max_value=7))
    variables = st.integers(min_value=1, max_value=num_vars)
    clause = st.lists(variables, min_size=1, max_size=3,
                      unique=True).flatmap(
        lambda vs: st.tuples(*[st.sampled_from([v, -v]) for v in vs]))
    xor = st.tuples(st.lists(variables, min_size=1, max_size=4,
                             unique=True), st.booleans())
    base = draw(st.lists(clause, max_size=6))
    base_xors = draw(st.lists(xor, max_size=2))
    projection = sorted(draw(st.lists(variables, min_size=1,
                                      max_size=num_vars, unique=True)))
    step = st.one_of(
        st.just(("push",)), st.just(("pop",)),
        st.tuples(st.just("clause"), clause),
        st.tuples(st.just("xor"), xor),
        st.tuples(st.just("block"), st.integers(min_value=1,
                                                 max_value=4)))
    steps = draw(st.lists(step, max_size=12))
    return num_vars, [list(c) for c in base], base_xors, projection, steps


def assert_level_zero(solver):
    assert solver.decision_level() == 0
    assert not solver._resume


@given(scripts())
@settings(max_examples=200, deadline=None)
def test_trail_keeping_enumeration_matches_brute_force(script):
    num_vars, base, base_xors, projection, steps = script
    solver = SatSolver()
    solver.new_vars(num_vars)
    # frames[i] = (clauses, xors) added at frame depth i
    frames = [([], [])]

    def add_clause(lits):
        solver.add_clause(lits)
        frames[-1][0].append(list(lits))

    def add_xor(variables, rhs):
        solver.add_xor(list(variables), rhs)
        frames[-1][1].append((list(variables), rhs))

    def formula():
        return ([c for clauses, _ in frames for c in clauses],
                [x for _, xors in frames for x in xors])

    for lits in base:
        add_clause(lits)
    for variables, rhs in base_xors:
        add_xor(variables, rhs)
    for step in steps:
        kind = step[0]
        if kind == "push":
            solver.push()
            frames.append(([], []))
            assert_level_zero(solver)
        elif kind == "pop":
            if len(frames) > 1:
                solver.pop()
                frames.pop()
                assert_level_zero(solver)
        elif kind == "clause":
            add_clause(step[1])
            assert_level_zero(solver)
        elif kind == "xor":
            add_xor(*step[1])
            assert_level_zero(solver)
        else:
            # A partial enumeration whose blocking clauses stay in the
            # current frame; later steps mutate the formula on top.
            for _ in range(step[1]):
                clauses, xors = formula()
                expected = projected_count(num_vars, clauses, xors,
                                           projection)
                verdict = solver.solve()
                assert verdict == (expected > 0)
                if not verdict:
                    break
                assert satisfies(solver.model(), clauses, xors)
                lits = blocking_literals(solver, projection)
                solver.add_blocking_clause(lits)
                frames[-1][0].append(lits)
    clauses, xors = formula()
    assert enumerate_all(solver, projection) == projected_count(
        num_vars, clauses, xors, projection)
    # the enumeration frame left the formula as it was
    assert_level_zero(solver)
    assert solver.solve() == (projected_count(num_vars, clauses, xors,
                                              projection) > 0)


def _chain_solver(num_vars):
    """x1 -> x2 -> ... -> xn: models are the prefixes-false chains."""
    solver = SatSolver()
    solver.new_vars(num_vars)
    for v in range(1, num_vars):
        solver.add_clause([-v, v + 1])
    return solver


def test_blocking_backjumps_to_the_asserting_level():
    solver = SatSolver()
    solver.new_vars(6)
    solver.add_clause([1, 2, 3, 4, 5, 6])
    for _ in range(10):
        assert solver.solve()
        lits = blocking_literals(solver, [1, 2, 3, 4, 5, 6])
        levels = sorted((solver._level[abs(lit)] for lit in lits),
                        reverse=True)
        solver.add_blocking_clause(lits)
        assert solver._resume
        top, second = levels[0], levels[1]
        if top > second:
            # the highest literal flips, asserted by the clause
            assert solver.decision_level() == second
            flipped = [lit for lit in lits if solver.value(lit) == TRUE]
            assert len(flipped) == 1
            reason = solver._reason[abs(flipped[0])]
            assert sorted(reason.lits) == sorted(lits)
        else:
            assert solver.decision_level() == top - 1
    solver.push()
    assert_level_zero(solver)
    solver.pop()


def test_level_zero_clause_makes_the_frame_unsat():
    solver = SatSolver()
    solver.new_vars(3)
    solver.add_clause([1])
    solver.add_clause([-2])
    solver.push()
    assert solver.solve()
    solver.add_blocking_clause(blocking_literals(solver, [1, 2]))
    assert not solver.ok
    assert solver.solve() is False
    solver.pop()
    assert solver.ok and solver.solve()


def test_clause_not_falsified_takes_the_level_zero_path():
    solver = _chain_solver(3)
    assert solver.solve()
    satisfied = [v if solver.model_value(v) else -v for v in (1, 2)]
    solver.add_blocking_clause(satisfied)
    assert_level_zero(solver)
    assert solver.solve()


def test_enumeration_count_on_chain():
    # x1 -> x2 -> x3 -> x4 -> x5 has 6 models
    assert enumerate_all(_chain_solver(5), [1, 2, 3, 4, 5]) == 6
    # projected onto {x1, x5}: (F,F) (F,T) (T,T)
    assert enumerate_all(_chain_solver(5), [1, 5]) == 3
