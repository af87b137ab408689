"""Tests for expanded circuits (paper Figure 2 machinery)."""

from types import SimpleNamespace

import pytest

from repro.boolfn.truthtable import TruthTable
from repro.core.expanded import ExpansionOverflow, sequential_cone_function
from repro.kernel.expand import expand_partial_packed
from repro.netlist.graph import SeqCircuit
from tests.helpers import AND2, BUF, XOR2


def two_stage():
    """x -> g1 =1FF=> g2, PO on g2."""
    c = SeqCircuit()
    x = c.add_pi("x")
    g1 = c.add_gate("g1", BUF, [(x, 0)])
    g2 = c.add_gate("g2", BUF, [(g1, 1)])
    c.add_po("o", g2)
    return c, x, g1, g2


def self_loop():
    """g reads itself through 1 FF and a PI."""
    c = SeqCircuit()
    x = c.add_pi("x")
    g = c.add_gate_placeholder("g", AND2)
    c.set_fanins(g, [(x, 0), (g, 1)])
    c.add_po("o", g)
    return c, x, g


def expand(c, v, phi, labels, threshold, **kwargs):
    """Packed partial expansion of ``E_v`` under a ``{node: label}``
    dict, with tiers and edges decoded back to ``(u, w)`` tuples."""
    label_list = [labels.get(u, 0) for u in range(len(c))]
    exp = expand_partial_packed(
        c.compiled(), v, phi, label_list, threshold,
        name_of=c.name_of, **kwargs,
    )
    pairs = exp.unpack_copies(exp.edges)
    return SimpleNamespace(
        blocked=exp.blocked,
        interior=exp.unpack_copies(exp.interior),
        candidates=exp.unpack_copies(exp.candidates),
        leaves=exp.unpack_copies(exp.leaves),
        edges=[(pairs[i], pairs[i + 1]) for i in range(0, len(pairs), 2)],
    )


class TestExpandPartial:
    def test_weights_accumulate(self):
        c, x, g1, g2 = two_stage()
        labels = {x: 0, g1: 1, g2: 1}
        # threshold below g1^1's height (1-1+1=1): expand through it.
        exp = expand(c, g2, 1, labels, threshold=0)
        copies = set(exp.interior) | set(exp.leaves) | set(exp.candidates)
        assert (g1, 1) in copies
        assert (x, 1) in copies  # x behind g1's register

    def test_every_path_crosses_w_registers(self):
        # Structural property of E_v: copy (u, w) connects to parents with
        # weight decreasing by the original edge weight.
        c, x, g = self_loop()
        labels = {x: 0, g: 1}
        exp = expand(c, g, 1, labels, threshold=-3)
        for (child, parent) in exp.edges:
            (cu, cw), (pu, pw) = child, parent
            pin = next(p for p in c.fanins(pu) if p.src == cu)
            assert cw == pw + pin.weight

    def test_self_loop_unrolls_until_threshold(self):
        c, x, g = self_loop()
        labels = {x: 0, g: 5}
        phi = 2
        # threshold 3: g^0 (h=6) and g^1 (h=4) interior; g^2 (h=2) frontier.
        exp = expand(c, g, phi, labels, threshold=3)
        assert (g, 1) in exp.interior
        assert (g, 2) in exp.leaves
        assert not exp.blocked

    def test_pi_blocks_when_above_threshold(self):
        c, x, g1, g2 = two_stage()
        labels = {x: 0, g1: 1, g2: 1}
        # threshold -5 forces even x^1 (height 0) to be interior: blocked.
        exp = expand(c, g2, 1, labels, threshold=-5)
        assert exp.blocked
        # the query stops at the PI instead of expanding through it
        assert all(u != x for u, _w in exp.interior)

    def test_candidate_tier(self):
        c, x, g = self_loop()
        labels = {x: 0, g: 5}
        phi = 2
        exp = expand(c, g, phi, labels, threshold=3, extra_depth=1)
        # g^2 (height 2 > floor 1) is now an expandable candidate.
        assert (g, 2) in exp.candidates
        assert (g, 3) in exp.leaves or (g, 3) in exp.candidates

    def test_root_must_be_gate(self):
        c, x, g1, g2 = two_stage()
        with pytest.raises(ValueError):
            expand(c, x, 1, {}, 0)

    def test_duplicate_pins_produce_no_duplicate_edges(self):
        # g reads the same driver twice through identical register counts:
        # one expansion edge per *distinct* pin, not per wire.
        c = SeqCircuit()
        x = c.add_pi("x")
        d = c.add_gate("d", BUF, [(x, 0)])
        g = c.add_gate("g", AND2, [(d, 1), (d, 1)])
        c.add_po("o", g)
        labels = {x: 0, d: 1, g: 1}
        exp = expand(c, g, 1, labels, threshold=1)
        assert len(exp.edges) == len(set(exp.edges))
        assert ((d, 1), (g, 0)) in exp.edges

    def test_distinct_weights_kept_as_distinct_edges(self):
        c = SeqCircuit()
        x = c.add_pi("x")
        d = c.add_gate("d", BUF, [(x, 0)])
        g = c.add_gate("g", XOR2, [(d, 0), (d, 1)])
        c.add_po("o", g)
        labels = {x: 0, d: 1, g: 1}
        exp = expand(c, g, 1, labels, threshold=1)
        assert ((d, 0), (g, 0)) in exp.edges
        assert ((d, 1), (g, 0)) in exp.edges


class TestExpansionOverflow:
    def _deep_unroll(self):
        # Self-loop with a high root label: ~41 interior copies of g
        # before the frontier drops below the threshold.
        c, x, g = self_loop()
        labels = {x: 0, g: 50}
        return c, g, labels

    def test_overflow_carries_node_name_and_limit(self):
        c, g, labels = self._deep_unroll()
        with pytest.raises(ExpansionOverflow) as excinfo:
            expand(c, g, 1, labels, threshold=10, max_copies=5)
        assert excinfo.value.node_name == c.name_of(g)
        assert excinfo.value.max_copies == 5
        assert "5 copies" in str(excinfo.value)

    def test_overflow_is_a_runtime_error(self):
        # Existing fault boundaries catch RuntimeError; the typed
        # exception must stay inside that contract.
        assert issubclass(ExpansionOverflow, RuntimeError)

    def test_limit_is_configurable(self):
        c, g, labels = self._deep_unroll()
        exp = expand(c, g, 1, labels, threshold=10, max_copies=500)
        assert not exp.blocked
        assert len(exp.interior) > 5


class TestSequentialConeFunction:
    def test_single_copy_cut(self):
        c, x, g1, g2 = two_stage()
        f = sequential_cone_function(c, g2, [(g1, 1)])
        assert f == TruthTable.var(0, 1)

    def test_cut_through_registers(self):
        c, x, g1, g2 = two_stage()
        f = sequential_cone_function(c, g2, [(x, 1)])
        assert f == TruthTable.var(0, 1)

    def test_self_loop_unrolled_function(self):
        c, x, g = self_loop()
        # cut = {x^0, x^1, g^2}: g = x0 AND (x@1 AND g@2)
        f = sequential_cone_function(c, g, [(x, 0), (x, 1), (g, 2)])
        expected = (
            TruthTable.var(0, 3) & TruthTable.var(1, 3) & TruthTable.var(2, 3)
        )
        assert f == expected

    def test_distinct_copies_are_distinct_vars(self):
        c = SeqCircuit()
        x = c.add_pi("x")
        g = c.add_gate("g", XOR2, [(x, 0), (x, 1)])
        c.add_po("o", g)
        f = sequential_cone_function(c, g, [(x, 0), (x, 1)])
        assert f == TruthTable.var(0, 2) ^ TruthTable.var(1, 2)

    def test_uncovered_cut_rejected(self):
        c, x, g1, g2 = two_stage()
        with pytest.raises(ValueError):
            sequential_cone_function(c, g2, [])  # reaches PI x uncovered

    def test_too_wide_rejected(self):
        c, x, g = self_loop()
        with pytest.raises(ValueError):
            sequential_cone_function(c, g, [(x, w) for w in range(22)])
