"""Tests for mapping generation from converged labels."""

import pytest

from repro.core.driver import search_min_phi
from repro.core.mapping import MappingError, Realization, generate_mapping, realize_node
from repro.core.expanded import sequential_cone_function
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import min_feasible_period
from tests.helpers import AND2, BUF, random_seq_circuit


def solved(circuit, k, resyn=False):
    from repro.retime.mdr import min_feasible_period as bound

    phi, outcomes = search_min_phi(circuit, k, bound(circuit), resyn)
    return phi, outcomes[phi].labels


def and_ring(num_gates, num_ffs=1):
    c = SeqCircuit("andring")
    xs = [c.add_pi(f"x{i}") for i in range(num_gates)]
    g = [c.add_gate_placeholder(f"g{i}", AND2) for i in range(num_gates)]
    for i in range(num_gates):
        w = num_ffs if i == 0 else 0
        c.set_fanins(g[i], [(g[(i - 1) % num_gates], w), (xs[i], 0)])
    c.add_po("o", g[-1])
    c.check()
    return c


class TestRealizeNode:
    def test_plain_cut_found(self):
        c = and_ring(4)
        phi, labels = solved(c, k=5)
        for g in c.gates:
            real = realize_node(c, g, phi, labels, 5, 15, allow_resyn=False)
            assert real.resyn is None
            assert len(real.cut) <= 5

    def test_mapping_error_on_bogus_labels(self):
        c = and_ring(6)
        labels = [0] * len(c)  # all-zero labels admit no cut for gates
        with pytest.raises(MappingError):
            realize_node(c, c.gates[2], 1, labels, 2, 2, allow_resyn=False)

    def test_resyn_fallback(self):
        c = and_ring(8)
        phi, labels = solved(c, k=5, resyn=True)
        assert phi == 1
        resyn_used = 0
        for g in c.gates:
            try:
                real = realize_node(c, g, phi, labels, 5, 15, allow_resyn=True)
            except MappingError:  # pragma: no cover
                pytest.fail("realization missing")
            if real.resyn is not None:
                resyn_used += 1
        assert resyn_used > 0


class TestGenerateMapping:
    def test_only_needed_gates_emitted(self):
        # A dangling gate never reached from POs is not mapped.
        c = and_ring(4)
        dead = c.add_gate("dead", BUF, [(c.pis[0], 0)])
        phi, labels = solved(c, k=5)
        mapped = generate_mapping(c, phi, labels, 5)
        assert "dead" not in mapped

    def test_lut_functions_exact(self):
        c = and_ring(5)
        phi, labels = solved(c, k=4)
        mapped = generate_mapping(c, phi, labels, 4)
        # Every mapped LUT must equal the cone function of its cut.
        for g in mapped.gates:
            name = mapped.name_of(g)
            if "~s" in name:
                continue
            subject = c.id_of(name)
            cut = [
                (c.id_of(mapped.name_of(p.src)), p.weight)
                for p in mapped.fanins(g)
            ]
            assert sequential_cone_function(c, subject, cut) == mapped.func(g)

    def test_preseeded_realizations_respected(self):
        c = and_ring(4)
        phi, labels = solved(c, k=5)
        v = c.fanins(c.pos[0])[0].src
        fixed = Realization(
            cut=tuple((p.src, p.weight) for p in c.fanins(v))
        )
        mapped = generate_mapping(
            c, phi, labels, 5, realizations={v: fixed}
        )
        root = mapped.id_of(c.name_of(v))
        assert len(mapped.fanins(root)) == len(fixed.cut)

    @pytest.mark.parametrize("seed", range(4))
    def test_mdr_invariant(self, seed):
        c = random_seq_circuit(3, 15, seed=seed, feedback=3)
        phi, labels = solved(c, k=3)
        mapped = generate_mapping(c, phi, labels, 3)
        assert min_feasible_period(mapped) <= phi

    def test_po_through_pi(self):
        c = SeqCircuit("pipo")
        a = c.add_pi("a")
        c.add_po("o", a, 3)
        phi, labels = solved(c, k=2)
        mapped = generate_mapping(c, phi, labels, 2)
        assert mapped.n_gates == 0
        assert mapped.fanins(mapped.pos[0])[0].weight == 3


class TestMaxCopiesReachesMapping:
    """The run's ``max_copies`` bounds mapping generation and its
    verification, not only the label search: a raised bound must not
    turn into an ``ExpansionOverflow`` after a successful search."""

    @pytest.mark.parametrize("algorithm", ["turbomap", "turbosyn"])
    def test_every_expansion_and_cone_uses_the_run_bound(
        self, monkeypatch, algorithm
    ):
        import inspect

        from repro.analysis import invariants
        from repro.bench import suite as bench_suite
        from repro.core import kcut, labels, mapping, seqdecomp
        from repro.core.turbomap import turbomap
        from repro.core.turbosyn import turbosyn

        bound = 123_457
        seen = []

        def record(module, name):
            original = getattr(module, name)
            signature = inspect.signature(original)

            def recording(*args, **kwargs):
                call = signature.bind(*args, **kwargs)
                call.apply_defaults()
                seen.append((module.__name__, call.arguments["max_copies"]))
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, recording)

        record(mapping, "sequential_cone_function")
        record(seqdecomp, "sequential_cone_function")
        record(invariants, "sequential_cone_function")
        for module in (kcut, labels):
            if hasattr(module, "expand_partial_packed"):
                record(module, "expand_partial_packed")
        mapper = turbomap if algorithm == "turbomap" else turbosyn
        result = mapper(bench_suite.build("dk16"), 5, max_copies=bound)
        assert result.certificate["verified"]
        modules = {name for name, _ in seen}
        assert "repro.core.mapping" in modules
        assert "repro.analysis.invariants" in modules
        if algorithm == "turbosyn":
            assert "repro.core.seqdecomp" in modules
        wrong = [(name, m) for name, m in seen if m != bound]
        assert not wrong, wrong[:5]
