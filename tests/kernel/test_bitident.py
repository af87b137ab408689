"""End-to-end bit-identity across the label-path oracles.

The acceptance bar of the kernel layer: the production path (worklist
engine) must produce byte-for-byte the same labels, phi, and mappings
as the paper's path (round-robin engine, kept as a test oracle) at
K=5.  Cut queries without candidate copies are leaf counts; the rest
run the one max-flow engine, and ``flow_solves`` counts them.
"""

import pytest

from repro.bench import suite as bench_suite
from repro.core.driver import (
    default_upper_bound,
    make_resyn_hook,
    search_min_phi,
)
from repro.core.labels import LabelSolver
from repro.core.seqdecomp import DEFAULT_CMAX
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn

ENGINES = ["worklist", "rounds"]


def _min_phi(circuit, k=5, extra_depth=0):
    phi = 1
    while True:
        outcome = LabelSolver(
            circuit, k, phi, extra_depth=extra_depth
        ).run()
        if outcome.feasible:
            return phi
        phi += 1


class TestLabelIdentity:
    @pytest.mark.parametrize("name", ["bbara", "dk16", "s838"])
    def test_labels_identical_across_matrix(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        outcomes = {
            engine: LabelSolver(circuit, k, phi, engine=engine).run()
            for engine in ENGINES
        }
        for engine, outcome in outcomes.items():
            assert outcome.feasible, engine
            assert outcome.labels == outcomes["worklist"].labels, engine
        # A repeated production run is deterministic to the counter.
        again = LabelSolver(circuit, k, phi).run()
        first = outcomes["worklist"].stats
        assert again.labels == outcomes["worklist"].labels
        assert again.stats.flow_queries == first.flow_queries
        assert again.stats.cache_hits == first.cache_hits
        assert again.stats.updates == first.updates
        assert again.stats.flow_solves == first.flow_solves

    def test_infeasible_phi_agrees(self):
        circuit = bench_suite.build("bbara")
        k = 5
        phi = _min_phi(circuit, k)
        if phi == 1:
            pytest.skip("already feasible at phi=1")
        for engine in ENGINES:
            outcome = LabelSolver(circuit, k, phi - 1, engine=engine).run()
            assert not outcome.feasible, engine

    def test_flow_solves_count_only_flow_queries(self):
        # Only expansions with candidate copies run a flow, and only
        # extra_depth >= 1 produces candidates.
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit, extra_depth=1)
        deep = LabelSolver(circuit, 5, phi, extra_depth=1).run()
        assert 0 < deep.stats.flow_solves <= deep.stats.flow_queries
        shallow = LabelSolver(circuit, 5, phi).run()
        assert shallow.stats.flow_solves == 0

    def test_frontier_queries_run_no_flow(self):
        """At the default extra_depth=0 every cut query is a leaf count:
        no max-flow runs under either engine."""
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        for engine in ENGINES:
            outcome = LabelSolver(circuit, 5, phi, engine=engine).run()
            assert outcome.stats.flow_queries > 0, engine
            assert outcome.stats.flow_solves == 0, engine
        stats = turbosyn(bench_suite.build("bbara"), 5, check=False).total_stats
        assert stats.flow_queries > 0
        assert stats.flow_solves == 0

    def test_engines_validate_arguments(self):
        circuit = bench_suite.build("bbara")
        with pytest.raises(ValueError, match="engine"):
            LabelSolver(circuit, 5, 3, engine="bogus")
        # One expansion and one max-flow engine: no kernel or flow
        # selector at all.
        with pytest.raises(TypeError, match="kernel"):
            LabelSolver(circuit, 5, 3, kernel="compiled")
        with pytest.raises(TypeError, match="flow"):
            LabelSolver(circuit, 5, 3, flow="ek")


class TestFullMatrixIdentity:
    """2 engines x 2 expansion depths: labels bit-identical per depth.

    At ``extra_depth=1`` some cut queries run a max-flow, at 0 none do.
    The work counters differ between the engines by design (worklist
    and rounds schedule different update sequences), but the labels
    and the feasibility verdict do not.
    """

    @pytest.mark.parametrize("name", ["bbara", "dk16"])
    def test_engine_flow_kernel_sweep(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        for extra_depth in (0, 1):
            outcomes = [
                LabelSolver(
                    circuit, k, phi, engine=engine, extra_depth=extra_depth
                ).run()
                for engine in ENGINES
            ]
            tag = f"extra_depth={extra_depth}"
            assert outcomes[0].feasible == outcomes[1].feasible, tag
            assert outcomes[0].labels == outcomes[1].labels, tag
            for outcome in outcomes:
                assert (outcome.stats.flow_solves > 0) == (
                    extra_depth == 1
                ), tag


def _oracle_search(circuit, upper_bound, resynthesize):
    """The phi search on the paper's path: the rounds engine."""
    phi, outcomes = search_min_phi(
        circuit, 5, upper_bound, resynthesize, engine="rounds"
    )
    return phi, outcomes[phi].labels


class TestMapperIdentity:
    """The production mappers against the test-oracle label path."""

    def test_turbomap_matches_reference_engine(self):
        circuit = bench_suite.build("bbara")
        new = turbomap(circuit.copy(), 5, check=False)
        phi, labels = _oracle_search(
            circuit, default_upper_bound(circuit), False
        )
        assert new.phi == phi
        assert list(new.labels) == list(labels)

    def test_turbosyn_matches_reference_engine(self):
        circuit = bench_suite.build("dk16")
        new = turbosyn(circuit.copy(), 5, check=False)
        bound = turbomap(circuit.copy(), 5, check=False).phi
        phi, labels = _oracle_search(circuit, bound, True)
        assert new.phi == phi
        assert list(new.labels) == list(labels)
        # The oracle labels are a fixpoint of the resynthesizing solver
        # itself, cold, at the optimum and infeasible just below it.
        hook = make_resyn_hook(DEFAULT_CMAX)
        at = LabelSolver(
            circuit, 5, phi, resyn_hook=hook,
            engine="rounds",
        ).run()
        assert at.feasible
        assert at.labels == list(labels)
        if phi > 1:
            below = LabelSolver(
                circuit, 5, phi - 1, resyn_hook=hook,
                engine="rounds",
            ).run()
            assert not below.feasible
