"""The staged compile pipeline: artifact structure, reconstruction,
DIMACS export and the on-disk payload round trip."""

import pytest

from repro.benchgen.suite import build_suite
from repro.compile import CompiledProblem, compile_problem
from repro.compile.simplify import run_stages
from repro.core.cells import CallCounter, saturating_count
from repro.core.enumerate import exact_count
from repro.sat.dimacs import load_solver, parse_dimacs_document
from repro.smt.solver import SmtSolver
from repro.smt.terms import (
    bv_ult, bv_val, bv_var, real_lt, real_val, real_var,
)
from repro.utils.deadline import Deadline

BIG = 10 ** 9


def _instances(width=5):
    return build_suite(per_logic=1, base_seed=3, widths=(width,))


def _exact_via(artifact):
    solver = SmtSolver.from_compiled(artifact)
    return saturating_count(solver, list(artifact.projection), BIG,
                            Deadline(60), CallCounter())


class TestCountingEquivalence:
    @pytest.mark.parametrize("instance", _instances(),
                             ids=lambda inst: inst.logic)
    def test_compiled_counts_match_known(self, instance):
        for simplify in (True, False):
            artifact = compile_problem(instance.assertions,
                                       instance.projection,
                                       simplify=simplify, digest="t")
            assert _exact_via(artifact) == instance.known_count

    def test_matches_legacy_direct_solver(self):
        x = bv_var("cpl_x", 6)
        assertions = [bv_ult(x, bv_val(41, 6))]
        artifact = compile_problem(assertions, [x], digest="t")
        legacy = exact_count(assertions, [x]).estimate
        assert _exact_via(artifact) == legacy == 41

    def test_compaction_keeps_positions_support_and_answers(self):
        # A simplified artifact is renumbered densely over the variables
        # its clauses and XOR rows still use, plus the protected ones;
        # the projection positions, the support and every answer stay.
        for instance in _instances():
            on = compile_problem(instance.assertions, instance.projection,
                                 simplify=True, digest="t")
            off = compile_problem(instance.assertions, instance.projection,
                                  simplify=False, digest="t")
            protected = {abs(lit) for lit in on.flat_bits}
            protected.update(abs(lit) for _atom, lit in on.atoms)
            protected.add(abs(on.true_lit))
            used = set(protected)
            for clause in on.snapshot.clauses:
                used.update(abs(lit) for lit in clause)
            for variables, _rhs in on.snapshot.xors:
                used.update(variables)
            assert used == set(range(1, on.num_vars + 1))
            assert {abs(lit) for lit in on.snapshot.units} <= used
            # flat-bit positions: same projection, same shape, and the
            # renumbering is monotone with polarity kept
            assert on.projection == off.projection
            assert ([len(bits) for bits in on.projection_bits]
                    == [len(bits) for bits in off.projection_bits])
            pairs = list(zip(on.flat_bits, off.flat_bits))
            assert all((a > 0) == (b > 0) for a, b in pairs)
            for a, b in pairs:
                for c, d in pairs:
                    assert (abs(a) < abs(c)) == (abs(b) < abs(d))
            # support: what the simplifier reports before renumbering
            frozen = {abs(lit) for lit in off.flat_bits}
            frozen.update(abs(lit) for _atom, lit in off.atoms)
            frozen.add(abs(off.true_lit))
            _snapshot, support = run_stages(off.snapshot, frozen,
                                            off.flat_bits)
            assert on.support == support
            # answers
            assert (_exact_via(on) == _exact_via(off)
                    == instance.known_count)


class TestArtifactStructure:
    def test_flat_bits_align_with_projection(self):
        instance = _instances()[0]
        artifact = compile_problem(instance.assertions,
                                   instance.projection, digest="t")
        widths = [var.sort.width for var in artifact.projection]
        assert len(artifact.flat_bits) == sum(widths)
        assert all(len(bits) == width for bits, width
                   in zip(artifact.projection_bits, widths))

    def test_support_subset_of_positions(self):
        for instance in _instances():
            artifact = compile_problem(instance.assertions,
                                       instance.projection, digest="t")
            positions = set(range(len(artifact.flat_bits)))
            assert set(artifact.support) <= positions
            # unsimplified artifacts report the full support
            raw = compile_problem(instance.assertions,
                                  instance.projection, simplify=False,
                                  digest="t")
            assert list(raw.support) == sorted(positions)

    def test_lra_atoms_registered_in_reconstruction(self):
        x = bv_var("cpl_lx", 4)
        r = real_var("cpl_lr")
        assertions = [bv_ult(x, bv_val(9, 4)), real_lt(r, real_val(2))]
        artifact = compile_problem(assertions, [x], digest="t")
        assert artifact.atoms
        assert not artifact.persistable
        with pytest.raises(ValueError):
            artifact.to_payload()
        solver = SmtSolver.from_compiled(artifact)
        assert solver.lra.has_atoms()
        assert saturating_count(solver, [x], BIG, Deadline(60),
                                CallCounter()) == 9


class TestPayloadRoundTrip:
    def test_counts_survive_json(self):
        instance = _instances()[0]
        artifact = compile_problem(instance.assertions,
                                   instance.projection, digest="rt")
        assert artifact.persistable
        import json
        revived = CompiledProblem.from_payload(
            json.loads(json.dumps(artifact.to_payload())))
        assert revived.digest == "rt"
        assert revived.snapshot == artifact.snapshot
        assert revived.projection == artifact.projection
        assert revived.projection_bits == artifact.projection_bits
        assert _exact_via(revived) == instance.known_count

    def test_corrupt_payload_raises(self):
        with pytest.raises((KeyError, TypeError, ValueError)):
            CompiledProblem.from_payload({"version": 99})
        with pytest.raises((KeyError, TypeError, ValueError)):
            CompiledProblem.from_payload({"version": 1, "digest": "x"})


class TestDimacsExport:
    def test_round_trips_and_counts(self):
        instance = _instances()[0]
        artifact = compile_problem(instance.assertions,
                                   instance.projection, digest="t")
        text = artifact.to_dimacs()
        document = parse_dimacs_document(text)
        assert document.num_vars == artifact.num_vars
        assert document.show  # c p show lines present
        assert all(1 <= var <= document.num_vars
                   for var in document.show)
        # counting over the minimised support equals the known count
        solver = load_solver(text)
        count = 0
        while solver.solve(deadline=Deadline(60)):
            count += 1
            assert count <= BIG
            blocking = [-var if solver.model_value(var) else var
                        for var in document.show]
            if not solver.add_clause(blocking):
                break
        assert count == instance.known_count
