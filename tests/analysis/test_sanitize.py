"""Invariant sanitizer: seeded mutations trip exactly their own hook.

The acceptance criterion asserted here: ``selftest()`` demonstrates
every SAN0xx hook catching its injected engine bug, clean runs stay
silent, and the hooks change no answers when enabled.
"""

import pytest

from repro.analysis import sanitize
from repro.analysis.engine import Severity, all_rules
from repro.analysis.sanitize import (
    _MUTATIONS,
    SanitizerViolation,
    enable,
    enabled,
    reset,
    selftest,
)
from repro.core.turbomap import turbomap
from tests.helpers import random_seq_circuit

SAN_IDS = ["SAN001", "SAN002", "SAN003", "SAN004", "SAN006"]


@pytest.fixture(autouse=True)
def restore_switch():
    yield
    reset()


class TestSwitch:
    def test_off_by_default(self, monkeypatch):
        monkeypatch.delenv(sanitize.ENV_FLAG, raising=False)
        reset()
        assert not enabled()

    def test_env_flag(self, monkeypatch):
        reset()
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        assert not enabled()
        monkeypatch.setenv(sanitize.ENV_FLAG, "")
        assert not enabled()

    def test_enable_overrides_env(self, monkeypatch):
        monkeypatch.setenv(sanitize.ENV_FLAG, "0")
        enable(True)
        assert enabled()
        enable(False)
        monkeypatch.setenv(sanitize.ENV_FLAG, "1")
        assert not enabled()
        reset()
        assert enabled()


class TestDescriptors:
    def test_rules_registered(self):
        rules = all_rules("sanitizer")
        assert [r.id for r in rules] == SAN_IDS
        for r in rules:
            assert r.severity is Severity.ERROR
            assert r.description

    def test_rules_never_fire_via_engine(self):
        for r in all_rules("sanitizer"):
            assert list(r.check(object())) == []


class TestMutations:
    @pytest.mark.parametrize("expected,scenario", _MUTATIONS)
    def test_each_hook_catches_its_mutation(self, expected, scenario):
        enable(True)
        with pytest.raises(SanitizerViolation) as exc_info:
            scenario()
        diag = exc_info.value.diagnostic
        assert diag.rule_id == expected
        assert diag.severity is Severity.ERROR
        assert diag.message

    @pytest.mark.parametrize("_expected,scenario", _MUTATIONS)
    def test_mutations_silent_when_disabled(self, _expected, scenario):
        enable(False)
        scenario()  # hooks absent: the injected bug goes unnoticed

    def test_selftest_passes(self):
        assert selftest() == []

    def test_selftest_restores_switch(self):
        enable(False)
        selftest()
        assert not enabled()

    def test_clean_runs_silent(self):
        enable(True)
        sanitize._clean_runs()


class TestNoInterference:
    def test_turbomap_answer_unchanged(self):
        circuit = random_seq_circuit(4, 30, seed=5, name="san-noninterf")
        plain = turbomap(circuit, 5)
        enable(True)
        armed = turbomap(circuit, 5)
        assert armed.phi == plain.phi
        for phi in plain.outcomes:
            assert armed.outcomes[phi].labels == plain.outcomes[phi].labels

    def test_flow_baselines_run_armed(self):
        # FlowMap and FlowSYN build their networks on the one max-flow
        # engine, so an armed run checks SAN003/SAN004 on every cut.
        from repro.comb.flowmap import flowmap
        from repro.comb.flowsyn import flowsyn
        from repro.comb.maxflow import SplitNetwork
        from repro.core.flowsyn_s import split_at_registers

        comb = split_at_registers(
            random_seq_circuit(4, 30, seed=5, name="san-comb")
        )
        plain = [flowmap(comb, 4), flowsyn(comb, 4)]
        enable(True)
        assert SplitNetwork().net._san is not None
        armed = [flowmap(comb, 4), flowsyn(comb, 4)]
        for before, after in zip(plain, armed):
            assert after.depth == before.depth
            assert after.cuts == before.cuts


class TestCli:
    def test_selftest_exit_zero(self, capsys):
        assert sanitize.main(["--selftest"]) == 0
        out = capsys.readouterr().out
        assert "seeded mutation(s) caught" in out

    def test_no_args_prints_help(self, capsys):
        assert sanitize.main([]) == 2
        assert "selftest" in capsys.readouterr().out
