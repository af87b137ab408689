"""K=3 regression cases for a worklist-engine label that mapping could
not realize.

On these random circuits the worklist engine once proved labels at
phi=1 that ``generate_mapping`` could not realize, so ``turbosyn``
raised :class:`MappingError`; the rounds engine's labels mapped fine.
The cause: a gate whose label rose on a resynthesis win was never
re-checked after its *own* rise, although its decomposition had read
its own (lower) label through a register-crossing loop.  The seven
seeds come from a scan of seeds 0-20,000.  Seed 5841 is the same
failure in the shape that
``test_properties.py::test_turbosyn_dominates_turbomap`` draws: 14
gates, feedback 3, with TurboMap's phi as the bound.
"""

import pytest

from repro.core.driver import probe_phi
from repro.core.turbomap import turbomap
from repro.core.turbosyn import turbosyn
from tests.helpers import random_seq_circuit

CRASH_SEEDS = [2493, 2853, 8791, 12326, 12831, 16631, 17595]


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_turbosyn_k3_maps(seed):
    circuit = random_seq_circuit(3, 12, feedback=2, seed=seed)
    result = turbosyn(circuit, 3)
    assert result.phi >= 1


def test_turbosyn_k3_maps_under_turbomap_bound():
    circuit = random_seq_circuit(3, 14, feedback=3, seed=5841)
    bound = turbomap(circuit, k=3).phi
    result = turbosyn(circuit, k=3, upper_bound=bound)
    assert result.phi <= bound


@pytest.mark.parametrize("seed", CRASH_SEEDS)
def test_engines_agree_at_phi_1(seed):
    """The self-dependent resynthesis win is re-checked by both engines."""
    circuit = random_seq_circuit(3, 12, feedback=2, seed=seed)
    outcomes = [
        probe_phi(circuit, 3, 1, True, engine=engine)
        for engine in ("worklist", "rounds")
    ]
    assert outcomes[0].feasible == outcomes[1].feasible
    assert outcomes[0].labels == outcomes[1].labels
