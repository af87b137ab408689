"""Exact cycle-ratio upper bound vs the Bellman-Ford search it replaces.

``default_upper_bound`` computes ``max(1, ceil(MDR))`` from one exact
maximum-cycle-ratio solve (``exact_mdr_period``, Howard's policy
iteration) instead of ``min_feasible_period``'s ``O(log n)``
feasibility probes.  The two must agree *exactly* on every input — any
divergence would silently shift the Figure-4 search trajectory.
"""

import pytest

from repro.analysis.certify import exact_mdr_period
from repro.bench.suite import build, quick_subset
from repro.core.driver import default_upper_bound
from repro.core.turbomap import turbomap
from repro.retime.mdr import min_feasible_period
from tests.analysis.test_certify import ring_circuit
from tests.helpers import lfsr, random_seq_circuit


@pytest.mark.parametrize("name", quick_subset())
def test_equals_bellman_ford_on_the_quick_suite(name):
    c = build(name)
    assert exact_mdr_period(c) == min_feasible_period(c)


@pytest.mark.parametrize(
    "n_gates,weight", [(3, 1), (4, 2), (7, 3), (5, 5), (6, 1)]
)
def test_equals_bellman_ford_on_rings(n_gates, weight):
    # MDR = n_gates / weight exactly; ceil() exercises every rounding
    # direction including the exact-integer case.
    c = ring_circuit(n_gates, weight)
    got = exact_mdr_period(c)
    assert got == min_feasible_period(c)
    assert got == -(-n_gates // weight)


@pytest.mark.parametrize("seed", range(6))
def test_equals_bellman_ford_on_random_circuits(seed):
    c = random_seq_circuit(4, 30, seed=seed, feedback=5)
    assert exact_mdr_period(c) == min_feasible_period(c)


def test_equals_bellman_ford_on_lfsr():
    c = lfsr(6, (0, 4))
    assert exact_mdr_period(c) == min_feasible_period(c)


def test_acyclic_circuit_is_period_one(seed=2):
    c = random_seq_circuit(4, 20, seed=seed, feedback=0)
    assert exact_mdr_period(c) == 1 == min_feasible_period(c)


def test_default_upper_bound_uses_the_exact_pass():
    c = build("dk16")
    assert default_upper_bound(c) == min_feasible_period(c)


def test_many_registers_never_fall_back(monkeypatch):
    """Past the retired Karp caps (2,000 registers) the exact solve still
    answers, and the driver never falls back to Bellman-Ford."""
    import repro.retime.mdr as mdr

    c = ring_circuit(7, 2500)
    expected = min_feasible_period(c)

    def no_bellman_ford(*_args):
        raise AssertionError("the bound ran a Bellman-Ford probe")

    monkeypatch.setattr(mdr, "has_positive_cycle", no_bellman_ford)
    assert exact_mdr_period(c) == expected == 1
    assert default_upper_bound(c) == expected


@pytest.mark.parametrize("name", quick_subset())
def test_search_trajectory_unchanged(name):
    """The new bound is bit-identical, so phi (and the mapping) is."""
    c = build(name)
    via_exact = turbomap(c.copy(), 4)
    via_bf = turbomap(c.copy(), 4, upper_bound=min_feasible_period(c))
    assert via_exact.phi == via_bf.phi
    assert list(via_exact.labels) == list(via_bf.labels)
