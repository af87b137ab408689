"""End-to-end bit-identity across the label-path oracles.

The acceptance bar of the kernel layer: the production path (worklist
engine, Dinic flow) must produce byte-for-byte the same labels, phi,
and mappings as the paper's path (round-robin engine, Edmonds-Karp
flow, kept as test oracles), with identical deterministic work counters
where the engines share them.
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

FLOWS = ["ek", "dinic"]


def _min_phi(circuit, k=5, extra_depth=0):
    phi = 1
    while True:
        outcome = LabelSolver(
            circuit, k, phi, extra_depth=extra_depth, flow="ek"
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
        reference = None
        for flow in FLOWS:
            outcome = LabelSolver(circuit, k, phi, flow=flow).run()
            assert outcome.feasible
            if reference is None:
                reference = outcome
                continue
            tag = flow
            assert outcome.labels == reference.labels, tag
            # The memo/guard logic is shared across flows, so the
            # engine-independent work counters must match exactly.
            assert outcome.stats.flow_queries == reference.stats.flow_queries, tag
            assert outcome.stats.cache_hits == reference.stats.cache_hits, tag
            assert outcome.stats.updates == reference.stats.updates, tag

    def test_infeasible_phi_agrees(self):
        circuit = bench_suite.build("bbara")
        k = 5
        phi = _min_phi(circuit, k)
        if phi == 1:
            pytest.skip("already feasible at phi=1")
        for flow in FLOWS:
            outcome = LabelSolver(circuit, k, phi - 1, flow=flow).run()
            assert not outcome.feasible, flow

    def test_dinic_counters_populate_only_under_dinic(self):
        # Only expansions with candidate copies run a flow, and only
        # extra_depth >= 1 produces candidates.
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit, extra_depth=1)
        dinic = LabelSolver(
            circuit, 5, phi, extra_depth=1, flow="dinic"
        ).run()
        ek = LabelSolver(circuit, 5, phi, extra_depth=1, flow="ek").run()
        assert dinic.stats.dinic_phases > 0
        assert dinic.stats.arcs_advanced > 0
        assert ek.stats.dinic_phases == 0
        assert ek.stats.arcs_advanced == 0

    def test_frontier_queries_run_no_flow(self):
        """At the default extra_depth=0 every cut query is a leaf count:
        neither flow engine runs, and the shared counters agree."""
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        dinic = LabelSolver(circuit, 5, phi, flow="dinic").run()
        ek = LabelSolver(circuit, 5, phi, flow="ek").run()
        for outcome in (dinic, ek):
            assert outcome.stats.flow_queries > 0
            assert outcome.stats.dinic_phases == 0
            assert outcome.stats.arcs_advanced == 0
        assert dinic.stats.flow_queries == ek.stats.flow_queries
        assert dinic.stats.updates == ek.stats.updates
        assert dinic.stats.cache_hits == ek.stats.cache_hits
        stats = turbosyn(bench_suite.build("bbara"), 5, check=False).total_stats
        assert stats.flow_queries > 0
        assert stats.dinic_phases == 0
        assert stats.arcs_advanced == 0

    def test_engines_validate_arguments(self):
        circuit = bench_suite.build("bbara")
        with pytest.raises(ValueError, match="flow"):
            LabelSolver(circuit, 5, 3, flow="bogus")
        with pytest.raises(ValueError, match="engine"):
            LabelSolver(circuit, 5, 3, engine="bogus")
        # One expansion implementation: no kernel selector at all.
        with pytest.raises(TypeError, match="kernel"):
            LabelSolver(circuit, 5, 3, kernel="compiled")


class TestFullMatrixIdentity:
    """2 engines x 2 flows: every combination bit-identical.

    Labels (and phi feasibility) are identical across the *whole*
    matrix; the deterministic work counters are identical within each
    label engine (worklist and rounds schedule different update
    sequences, so their counters differ from each other by design —
    but not across flows).
    """

    @pytest.mark.parametrize("name", ["bbara", "dk16"])
    def test_engine_flow_kernel_sweep(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        reference = None
        for engine in ("worklist", "rounds"):
            engine_ref = None
            for flow in ("dinic", "ek"):
                tag = f"{engine}/{flow}"
                outcome = LabelSolver(
                    circuit, k, phi, engine=engine, flow=flow
                ).run()
                assert outcome.feasible, tag
                if reference is None:
                    reference = outcome
                assert outcome.labels == reference.labels, tag
                if engine_ref is None:
                    engine_ref = outcome
                    continue
                ref = engine_ref.stats
                stats = outcome.stats
                assert stats.rounds == ref.rounds, tag
                assert stats.updates == ref.updates, tag
                assert stats.flow_queries == ref.flow_queries, tag
                assert stats.cache_hits == ref.cache_hits, tag
                assert stats.pld_checks == ref.pld_checks, tag


def _oracle_search(circuit, upper_bound, resynthesize):
    """The phi search on the paper's path: rounds engine, EK."""
    phi, outcomes = search_min_phi(
        circuit, 5, upper_bound, resynthesize, engine="rounds", flow="ek"
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
            engine="rounds", flow="ek",
        ).run()
        assert at.feasible
        assert at.labels == list(labels)
        if phi > 1:
            below = LabelSolver(
                circuit, 5, phi - 1, resyn_hook=hook,
                engine="rounds", flow="ek",
            ).run()
            assert not below.feasible
