"""The exact maximum-cycle-ratio solver and its RET003 certificate.

Howard's policy iteration (:func:`repro.retime.mdr.max_cycle_ratio`)
is checked against two oracles it shares no code with — Karp's maximum
cycle mean on the condensed register graph (``karp_oracle``) and
simple-cycle enumeration (``brute_force_mdr``) — and its certificate
against one-at-a-time mutations the checker must reject.
"""

import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.retime.mdr as mdr
from repro.analysis.certify import (
    build_cycle_certificate,
    check_cycle_certificate,
    exact_mdr_period,
)
from repro.bench.suite import build, large_circuit, quick_subset
from repro.netlist.graph import SeqCircuit
from repro.retime.mdr import (
    max_cycle_ratio,
    min_feasible_period,
    rate_potentials,
)
from tests.analysis.karp_oracle import karp_mdr
from tests.helpers import AND2, BUF, random_seq_circuit
from tests.retime.test_mdr import brute_force_mdr

small_circuits = st.builds(
    random_seq_circuit,
    n_inputs=st.integers(min_value=1, max_value=4),
    n_gates=st.integers(min_value=2, max_value=14),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    feedback=st.integers(min_value=0, max_value=5),
)

PROPERTY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def two_loops():
    """Loop A: g0 -> g1 -> g0 over one register (ratio 2); loop B:
    g2 -> g3 -> g4 -> g2 over two registers (ratio 3/2)."""
    c = SeqCircuit("two_loops")
    pi = c.add_pi("pi")
    g = [c.add_gate_placeholder(f"g{i}", AND2 if i in (0, 2) else BUF)
         for i in range(5)]
    c.set_fanins(g[0], [(pi, 0), (g[1], 1)])
    c.set_fanins(g[1], [(g[0], 0)])
    c.set_fanins(g[2], [(g[0], 0), (g[4], 2)])
    c.set_fanins(g[3], [(g[2], 0)])
    c.set_fanins(g[4], [(g[3], 0)])
    c.add_po("out", g[4])
    c.check()
    return c


def assert_proof(circuit, found):
    """The solver's own answer is a two-sided proof of its ratio."""
    p, q = found.ratio.numerator, found.ratio.denominator
    for src, dst, weight in circuit.edges():
        gain = q * circuit.node(src).delay - p * weight
        assert found.potentials[dst] >= found.potentials[src] + gain
    if found.ratio:
        delay = sum(circuit.node(v).delay for v in found.cycle)
        assert Fraction(delay, sum(found.weights)) == found.ratio
    else:
        assert found.cycle == []


class TestAgainstOracles:
    @pytest.mark.parametrize("name", quick_subset())
    def test_suite_circuits_match_karp(self, name):
        c = build(name)
        found = max_cycle_ratio(c)
        assert found.ratio == karp_mdr(c)
        assert_proof(c, found)

    @given(small_circuits)
    @PROPERTY
    def test_random_circuits_match_karp_and_enumeration(self, c):
        found = max_cycle_ratio(c)
        assert found.ratio == karp_mdr(c) == brute_force_mdr(c)
        assert_proof(c, found)
        assert exact_mdr_period(c) == min_feasible_period(c)

    @given(small_circuits)
    @PROPERTY
    def test_certificate_checks_clean(self, c):
        phi = exact_mdr_period(c)
        blob = build_cycle_certificate(c, phi)
        assert blob["feasible"] is True
        assert check_cycle_certificate(c, phi, blob) == []

    def test_two_loops(self):
        c = two_loops()
        found = max_cycle_ratio(c)
        assert found.ratio == 2
        assert [c.name_of(v) for v in found.cycle] == ["g0", "g1"]
        assert_proof(c, found)


class TestExactness:
    def test_relaxation_raises_a_wrong_ratio(self, monkeypatch):
        """Should policy iteration ever stop short, the integer
        relaxation finds the better cycle and its ratio is adopted."""
        c = two_loops()
        loop_b = [c.id_of(n) for n in ("g2", "g3", "g4")]

        def short_of_the_optimum(members, succ, delays):
            if loop_b[0] in members:
                return 3, 2, loop_b, [0, 0, 2], [0] * len(members)
            return 1, 1, [members[0]], [1], [0] * len(members)

        monkeypatch.setattr(mdr, "_howard", short_of_the_optimum)
        found = max_cycle_ratio(c)
        assert found.ratio == 2
        assert sorted(c.name_of(v) for v in found.cycle) == ["g0", "g1"]
        assert_proof(c, found)

    def test_positive_cycle_below_the_ratio(self):
        c = two_loops()
        potentials, loop = rate_potentials(c, 7, 4)  # 7/4 < 2
        assert potentials is None
        delay = sum(c.node(v).delay for v in loop)
        weight = sum(
            min(p.weight for p in c.fanins(v) if p.src == u)
            for u, v in zip(loop, loop[1:] + loop[:1])
        )
        assert Fraction(delay, weight) > Fraction(7, 4)

    def test_combinational_cycle(self):
        c = SeqCircuit("comb")
        g1 = c.add_gate_placeholder("g1", BUF)
        g2 = c.add_gate_placeholder("g2", BUF)
        c.set_fanins(g1, [(g2, 0)])
        c.set_fanins(g2, [(g1, 0)])
        c.add_po("o", g2)
        with pytest.raises(ValueError):
            max_cycle_ratio(c)
        blob = build_cycle_certificate(c, 3)
        assert blob["mcm"] is None and blob["feasible"] is False
        problems = check_cycle_certificate(c, 3, blob)
        assert problems and "unbounded" in problems[0]


class TestCertificateMutations:
    """Each single mutation of a valid certificate must be rejected.

    A smaller claimed ``mcm``, an edge the circuit lacks and a walk
    without registers are covered on a ring in ``test_certify.py``.
    """

    @pytest.fixture()
    def cert(self):
        c = two_loops()
        blob = build_cycle_certificate(c, 2)
        assert check_cycle_certificate(c, 2, blob) == []
        return c, blob

    def test_lowered_potential(self, cert):
        c, blob = cert
        # Every edge of the critical cycle is tight, so lowering the
        # potential of any node on it breaks its inbound cycle edge.
        for name, _w in blob["circuit_cycle"]:
            potentials = list(blob["potentials"])
            potentials[c.id_of(name)] -= 1
            problems = check_cycle_certificate(
                c, 2, dict(blob, potentials=potentials)
            )
            assert problems and "potential inequality" in problems[0]

    def test_smaller_mcm_with_its_own_cycle(self, cert):
        # Loop B really achieves 3/2, but the potentials cannot hold at
        # that rate while loop A (ratio 2) exists.
        c, blob = cert
        lower = dict(
            blob,
            mcm="3/2",
            bound=2,
            circuit_cycle=[["g2", 0], ["g3", 0], ["g4", 2]],
        )
        problems = check_cycle_certificate(c, 2, lower)
        assert problems and "potential inequality" in problems[0]

    def test_registerless_walk_over_real_edges(self):
        # A closed walk whose edges all exist but carry no register is a
        # combinational cycle: the ratio is not a finite claim.
        c = SeqCircuit("comb")
        g1 = c.add_gate_placeholder("g1", BUF)
        g2 = c.add_gate_placeholder("g2", BUF)
        c.set_fanins(g1, [(g2, 0)])
        c.set_fanins(g2, [(g1, 0)])
        c.add_po("o", g2)
        blob = {
            "schema": 2,
            "kind": "max-cycle-ratio",
            "phi": 2,
            "mcm": "2/1",
            "bound": 2,
            "feasible": True,
            "circuit_cycle": [["g1", 0], ["g2", 0]],
            "potentials": [0] * len(c),
        }
        problems = check_cycle_certificate(c, 2, blob)
        assert problems == ["witness cycle carries no registers"]

    def test_wrong_bound(self, cert):
        c, blob = cert
        problems = check_cycle_certificate(c, 2, dict(blob, bound=3))
        assert problems and "bound" in problems[0]

    def test_schema1_blob_is_not_a_proof(self, cert):
        c, blob = cert
        old = dict(blob, schema=1, kind="karp-cycle-mean")
        del old["potentials"]
        problems = check_cycle_certificate(c, 2, old)
        assert problems and "unsupported" in problems[0]


class TestScale:
    def test_large_circuit_8_never_skipped(self):
        c = large_circuit(8)
        phi = exact_mdr_period(c)
        blob = build_cycle_certificate(c, phi)
        assert "skipped" not in blob
        assert len(blob["potentials"]) == len(c)
        assert check_cycle_certificate(c, phi, blob) == []
        assert math.ceil(Fraction(blob["mcm"])) == min_feasible_period(c)
