"""Schedule / cycle-ratio certificates: construction, replay, cross-check.

On every quick-suite circuit the schedule certificate replays cleanly
and the certified cycle-ratio bound equals the engine's
``min_feasible_period`` — zero false alarms — and seeded tampering of
either blob is rejected.
"""

from fractions import Fraction

import pytest

from repro.analysis.certify import (
    balanced_word,
    build_cycle_certificate,
    build_schedule_certificate,
    check_cycle_certificate,
    replay_schedule,
)
from repro.analysis.engine import run_rules
from repro.analysis.invariants import MappingContext
from repro.bench.suite import build, quick_subset
from repro.core.turbomap import turbomap
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import min_feasible_period
from tests.helpers import AND2, BUF, lfsr, random_seq_circuit


def ring_circuit(n_gates=3, weight=1, name="ring"):
    """A single cycle of ``n_gates`` unit-delay gates carrying ``weight``
    registers on the back edge: MDR = n_gates / weight exactly."""
    c = SeqCircuit(name)
    pi = c.add_pi("pi")
    head = c.add_gate_placeholder("g0", AND2)
    prev = head
    for i in range(1, n_gates):
        prev = c.add_gate(f"g{i}", BUF, [(prev, 0)])
    c.set_fanins(head, [(pi, 0), (prev, weight)])
    c.add_po("out", prev)
    c.check()
    return c


def only(diags, rule_id):
    return [d for d in diags if d.rule_id == rule_id]


class TestBalancedWord:
    def test_word_shape(self):
        # 0^2 (1 0^2)* at phi=3: fires at 2, 5, 8, ...
        assert balanced_word(2, 3, 10) == "0010010010"

    def test_zero_offset_fires_immediately(self):
        assert balanced_word(0, 2, 6) == "101010"

    def test_one_firing_per_period(self):
        word = balanced_word(4, 5, 4 + 5 * 6)
        assert word.count("1") == 6


class TestScheduleCertificate:
    def test_ring_feasible_at_mdr(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 3)
        assert blob["feasible"] is True
        assert replay_schedule(c, 3, blob["offsets"]) == []

    def test_ring_infeasible_below_mdr(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 2)
        assert blob["feasible"] is False
        assert blob["witness_node"] is not None

    def test_offsets_normalized(self):
        c = ring_circuit(4, 2)
        blob = build_schedule_certificate(c, 2)
        assert blob["feasible"] is True
        assert min(blob["offsets"]) == 0
        assert blob["makespan"] == max(blob["offsets"])

    def test_replay_rejects_tampered_offsets(self):
        c = ring_circuit(3, 1)
        blob = build_schedule_certificate(c, 3)
        offsets = list(blob["offsets"])
        # Pull one gate's start below what its fanin chain allows.
        victim = c.id_of("g2")
        offsets[victim] = -10
        problems = replay_schedule(c, 3, offsets)
        assert problems
        assert "start constraint" in problems[0]

    def test_replay_rejects_wrong_length(self):
        c = ring_circuit(3, 1)
        assert replay_schedule(c, 3, [0]) == [
            f"offset vector has 1 entries for {len(c)} nodes"
        ]

    def test_replay_rejects_bad_period(self):
        c = ring_circuit(3, 1)
        assert replay_schedule(c, 0, [0] * len(c))

    def test_lfsr_certificate(self):
        c = lfsr(8, [0, 3])
        phi = min_feasible_period(c)
        blob = build_schedule_certificate(c, phi)
        assert blob["feasible"] is True
        assert replay_schedule(c, phi, blob["offsets"]) == []
        below = build_schedule_certificate(c, phi - 1) if phi > 1 else None
        if below is not None:
            assert below["feasible"] is False


class TestCycleCertificate:
    def test_ring_exact_ratio(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        assert blob["mcm"] == "3/1"
        assert blob["bound"] == 3
        assert blob["feasible"] is True
        assert check_cycle_certificate(c, 3, blob) == []

    def test_fractional_ratio_rounds_up(self):
        c = ring_circuit(3, 2)
        blob = build_cycle_certificate(c, 2)
        assert blob["mcm"] == "3/2"
        assert blob["bound"] == 2
        assert check_cycle_certificate(c, 2, blob) == []

    def test_infeasible_below_ratio(self):
        c = ring_circuit(4, 1)
        blob = build_cycle_certificate(c, 3)
        assert blob["feasible"] is False
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "below the certified MDR" in problems[0]

    def test_acyclic_circuit_bound_one(self):
        c = SeqCircuit("acyc")
        a = c.add_pi("a")
        b = c.add_pi("b")
        g = c.add_gate("g", AND2, [(a, 0), (b, 1)])
        c.add_po("o", g)
        blob = build_cycle_certificate(c, 1)
        assert blob["bound"] == 1
        assert blob["circuit_cycle"] == []
        assert check_cycle_certificate(c, 1, blob) == []

    def test_tampered_ratio_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["mcm"] = "2/1"
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "achieves ratio" in problems[0]

    def test_fabricated_edge_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["circuit_cycle"] = [["g0", 0], ["g2", 1]]  # no g0 -> g2 edge
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "does not have" in problems[0]

    def test_registerless_walk_rejected(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["circuit_cycle"] = [
            [name, 0] for name, _w in blob["circuit_cycle"]
        ]
        problems = check_cycle_certificate(c, 3, blob)
        assert problems

    def test_many_registers_never_skipped(self):
        # More registers than the retired Karp cap allowed (2,000): the
        # certificate is still built, exact and checked.
        c = ring_circuit(3, 2500)
        blob = build_cycle_certificate(c, 1)
        assert "skipped" not in blob
        assert blob["mcm"] == "3/2500"
        assert blob["bound"] == 1
        assert check_cycle_certificate(c, 1, blob) == []

    def test_random_seq_matches_engine(self):
        for seed in (7, 21, 42):
            c = random_seq_circuit(4, 30, seed)
            phi = min_feasible_period(c)
            blob = build_cycle_certificate(c, phi)
            assert blob["bound"] == phi, c.name
            assert check_cycle_certificate(c, phi, blob) == []


class TestRuleWiring:
    def ctx(self, circuit, phi, **kwargs):
        return MappingContext(
            circuit, circuit, phi, [], 5, algorithm="test", **kwargs
        )

    def test_ret002_fires_below_mdr(self):
        c = ring_circuit(3, 1)
        diags = run_rules("mapping", self.ctx(c, 2), ["RET002"])
        assert [d.rule_id for d in diags] == ["RET002"]
        assert "phi < MDR" in diags[0].message

    def test_ret003_fires_on_engine_disagreement(self):
        c = ring_circuit(3, 1)
        blob = build_cycle_certificate(c, 3)
        blob["bound"] = 7  # engine says 3
        blob["mcm"] = "7/1"
        diags = run_rules(
            "mapping", self.ctx(c, 3, cycle_cert=blob), ["RET003"]
        )
        assert any("achieves ratio" in d.message for d in diags) or any(
            "disagrees" in d.message for d in diags
        )

    def test_clean_ring_produces_no_findings(self):
        c = ring_circuit(3, 1)
        ctx = self.ctx(c, 3)
        assert run_rules("mapping", ctx, ["RET002"]) == []
        assert run_rules("mapping", ctx, ["RET003"]) == []


class TestUpperBoundHint:
    def test_hint_does_not_change_the_answer(self):
        c = ring_circuit(3, 1)
        assert min_feasible_period(c) == 3
        assert min_feasible_period(c, upper_bound=3) == 3
        # An infeasible hint is verified and ignored, never trusted.
        assert min_feasible_period(c, upper_bound=1) == 3
        assert min_feasible_period(c, upper_bound=100) == 3

    def test_hint_on_random_circuits(self):
        for seed in (3, 11):
            c = random_seq_circuit(4, 25, seed)
            phi = min_feasible_period(c)
            assert min_feasible_period(c, upper_bound=phi) == phi
            assert min_feasible_period(c, upper_bound=max(1, phi - 1)) == phi


@pytest.mark.parametrize("name", quick_subset())
def test_quick_suite_zero_false_alarms(name):
    """Acceptance: both certificates pass on every quick-suite circuit."""
    circuit = build(name)
    result = turbomap(circuit, 5)  # check=True runs RET002/RET003 already
    sched = result.certificate["schedule_certificate"]
    cyc = result.certificate["cycle_certificate"]
    assert sched["feasible"] is True
    assert sched["phi"] == result.phi
    assert replay_schedule(result.mapped, result.phi, sched["offsets"]) == []
    assert check_cycle_certificate(result.mapped, result.phi, cyc) == []
    assert "skipped" not in cyc
    assert cyc["feasible"] is True
    engine_bound = min_feasible_period(result.mapped)
    assert cyc["bound"] == engine_bound
    assert result.phi >= Fraction(cyc["mcm"])
