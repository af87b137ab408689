"""End-to-end bit-identity across the engine matrix.

The acceptance bar of the kernel layer: ``dinic+compiled`` (the
production path) must produce byte-for-byte the same labels, phi, and
mappings as ``ek+object`` (the original engine, kept as a test oracle),
with identical deterministic work counters where the engines share
them.
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

MATRIX = [
    ("ek", "object"),
    ("ek", "compiled"),
    ("dinic", "object"),
    ("dinic", "compiled"),
]

def _min_phi(circuit, k=5):
    phi = 1
    while True:
        if LabelSolver(circuit, k, phi, flow="ek", kernel="object").run().feasible:
            return phi
        phi += 1


class TestLabelIdentity:
    @pytest.mark.parametrize("name", ["bbara", "dk16", "s838"])
    def test_labels_identical_across_matrix(self, name):
        circuit = bench_suite.build(name)
        k = 5
        phi = _min_phi(circuit, k)
        reference = None
        for flow, kernel in MATRIX:
            outcome = LabelSolver(
                circuit, k, phi, flow=flow, kernel=kernel
            ).run()
            assert outcome.feasible
            if reference is None:
                reference = outcome
                continue
            tag = f"{flow}+{kernel}"
            assert outcome.labels == reference.labels, tag
            # The memo/guard logic is shared across kernels, so the
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
        for flow, kernel in MATRIX:
            outcome = LabelSolver(
                circuit, k, phi - 1, flow=flow, kernel=kernel
            ).run()
            assert not outcome.feasible, f"{flow}+{kernel}"

    def test_dinic_counters_populate_only_under_dinic(self):
        circuit = bench_suite.build("bbara")
        phi = _min_phi(circuit)
        dinic = LabelSolver(circuit, 5, phi, flow="dinic").run()
        ek = LabelSolver(circuit, 5, phi, flow="ek").run()
        assert dinic.stats.dinic_phases > 0
        assert dinic.stats.arcs_advanced > 0
        assert ek.stats.dinic_phases == 0
        assert ek.stats.arcs_advanced == 0

    def test_engines_validate_arguments(self):
        circuit = bench_suite.build("bbara")
        with pytest.raises(ValueError, match="flow"):
            LabelSolver(circuit, 5, 3, flow="bogus")
        with pytest.raises(ValueError, match="kernel"):
            LabelSolver(circuit, 5, 3, kernel="bogus")
        # Only the compiled production kernel and the object oracle.
        for retired in ("vector", "auto"):
            with pytest.raises(ValueError, match="kernel"):
                LabelSolver(circuit, 5, 3, kernel=retired)


class TestFullMatrixIdentity:
    """2 engines x 2 flows x 2 kernels: every combination bit-identical.

    Labels (and phi feasibility) are identical across the *whole*
    matrix; the deterministic work counters are identical within each
    label engine (worklist and rounds schedule different update
    sequences, so their counters differ from each other by design —
    but not across flows or kernels).
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
                for kernel in ("compiled", "object"):
                    tag = f"{engine}/{flow}+{kernel}"
                    outcome = LabelSolver(
                        circuit, k, phi,
                        engine=engine, flow=flow, kernel=kernel,
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


def _oracle_search(circuit, upper_bound, resynthesize, **label_path):
    """The phi search on the paper's path: rounds engine, EK, objects."""
    options = {"engine": "rounds", "flow": "ek", "kernel": "object"}
    options.update(label_path)
    phi, outcomes = search_min_phi(
        circuit, 5, upper_bound, resynthesize, **options
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
            engine="rounds", flow="ek", kernel="object",
        ).run()
        assert at.feasible
        assert at.labels == list(labels)
        if phi > 1:
            below = LabelSolver(
                circuit, 5, phi - 1, resyn_hook=hook,
                engine="rounds", flow="ek", kernel="object",
            ).run()
            assert not below.feasible

    def test_rounds_engine_accepts_kernel(self):
        circuit = bench_suite.build("bbara")
        bound = default_upper_bound(circuit)
        compiled = _oracle_search(
            circuit, bound, False, flow="dinic", kernel="compiled"
        )
        assert compiled == _oracle_search(circuit, bound, False)
