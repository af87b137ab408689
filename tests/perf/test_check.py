"""The regression gate: baseline comparison policy and CLI exit codes."""

import copy
import json
import os

from repro.perf import check as perf_check
from repro.perf import report as perf_report

BASELINE = os.path.join(
    os.path.dirname(__file__), "..", "..", "benchmarks", "baseline.json"
)


def _report(runs, errors=None, warm_start=None):
    report = {"schema": perf_report.SCHEMA_VERSION, "kind": "suite",
              "runs": runs}
    if errors is not None:
        report["errors"] = errors
    if warm_start is not None:
        report["warm_start"] = warm_start
    return report


def _run(
    circuit="bbara",
    algo="turbomap",
    phi=3,
    luts=100,
    seconds=1.0,
    workers=None,
    flow_queries=None,
    updates=None,
):
    run = {
        "circuit": circuit,
        "algorithm": algo,
        "phi": phi,
        "luts": luts,
        "seconds": seconds,
    }
    if workers is not None:
        run["workers"] = workers
    if flow_queries is not None or updates is not None:
        run["stats"] = {"flow_queries": flow_queries, "updates": updates}
    return run


class TestCompare:
    def test_clean_pass(self):
        comparison = perf_check.compare(
            _report([_run()]), _report([_run()]), tolerance=0.25
        )
        assert comparison.ok and comparison.compared == 1
        assert not comparison.regressions

    def test_phi_increase_is_regression(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([_run(phi=4)])
        )
        assert not comparison.ok
        assert any("phi regressed" in r for r in comparison.regressions)

    def test_phi_decrease_is_improvement(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([_run(phi=2)])
        )
        assert comparison.ok
        assert any("phi improved" in s for s in comparison.improvements)

    def test_lut_growth_within_tolerance_passes(self):
        comparison = perf_check.compare(
            _report([_run(luts=100)]), _report([_run(luts=120)]), tolerance=0.25
        )
        assert comparison.ok

    def test_lut_growth_beyond_tolerance_fails(self):
        comparison = perf_check.compare(
            _report([_run(luts=100)]), _report([_run(luts=130)]), tolerance=0.25
        )
        assert not comparison.ok
        assert any("luts regressed" in r for r in comparison.regressions)

    def test_time_slowdown_warns_by_default(self):
        comparison = perf_check.compare(
            _report([_run(seconds=1.0)]), _report([_run(seconds=3.0)])
        )
        assert comparison.ok
        assert comparison.warnings

    def test_time_gate_opt_in(self):
        comparison = perf_check.compare(
            _report([_run(seconds=1.0)]),
            _report([_run(seconds=3.0)]),
            time_tolerance=0.5,
        )
        assert not comparison.ok

    def test_disjoint_runs_not_ok(self):
        comparison = perf_check.compare(
            _report([_run(circuit="a")]), _report([_run(circuit="b")])
        )
        assert comparison.compared == 0
        assert not comparison.ok


class TestResiliencePolicy:
    """Schema-2 degraded runs and error entries under the gate."""

    def _degraded(self, phi):
        run = _run(phi=phi)
        run["degraded"] = True
        run["degraded_reason"] = "deadline"
        return run

    def _error(self):
        return {
            "circuit": "bbara",
            "algorithm": "turbomap",
            "error": "InjectedFault",
            "message": "injected fault",
            "stage": "map",
            "elapsed": 0.1,
        }

    def test_degraded_run_flagged_as_warning(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([self._degraded(phi=3)])
        )
        assert comparison.ok
        assert any("degraded run (deadline)" in w for w in comparison.warnings)

    def test_degraded_phi_regression_warns_not_fails(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]), _report([self._degraded(phi=5)])
        )
        assert comparison.ok
        assert any("phi regressed" in w for w in comparison.warnings)

    def test_strict_resilience_fails_degraded_regression(self):
        comparison = perf_check.compare(
            _report([_run(phi=3)]),
            _report([self._degraded(phi=5)]),
            strict_resilience=True,
        )
        assert not comparison.ok
        assert any("phi regressed" in r for r in comparison.regressions)

    def test_error_entries_warn_by_default(self):
        comparison = perf_check.compare(
            _report([_run()]), _report([_run()], errors=[self._error()])
        )
        assert comparison.ok
        assert any("cell failed" in w for w in comparison.warnings)

    def test_strict_resilience_fails_on_error_entries(self):
        comparison = perf_check.compare(
            _report([_run()]),
            _report([_run()], errors=[self._error()]),
            strict_resilience=True,
        )
        assert not comparison.ok

    def test_strict_flag_wired_through_main(self, tmp_path):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps(_report([_run()])))
        cur.write_text(json.dumps(_report([_run()], errors=[self._error()])))
        assert perf_check.main([str(base), str(cur)]) == 0
        assert (
            perf_check.main([str(base), str(cur), "--strict-resilience"]) == 1
        )


class TestCounterGate:
    """Deterministic work counters under the gate."""

    def _pair(self, base_fq, cur_fq, **kwargs):
        base = _report(
            [_run(flow_queries=base_fq, updates=100, workers=1)],
            warm_start=kwargs.pop("base_warm", True),
        )
        cur = _report(
            [
                _run(
                    flow_queries=cur_fq,
                    updates=kwargs.pop("cur_updates", 100),
                    workers=kwargs.pop("cur_workers", 1),
                )
            ],
            warm_start=kwargs.pop("cur_warm", True),
        )
        return base, cur

    def test_counter_growth_beyond_tolerance_fails(self):
        base, cur = self._pair(100, 120)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "flow_queries regressed" in r for r in comparison.regressions
        )

    def test_counter_growth_within_tolerance_passes(self):
        base, cur = self._pair(100, 108)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok

    def test_counter_drop_is_improvement(self):
        base, cur = self._pair(100, 60)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries improved" in s for s in comparison.improvements
        )

    def test_updates_gated_too(self):
        base, cur = self._pair(100, 100, cur_updates=200)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any("updates regressed" in r for r in comparison.regressions)

    def test_warm_start_mismatch_downgrades_to_warning(self):
        base, cur = self._pair(100, 300, cur_warm=False)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries regressed" in w for w in comparison.warnings
        )
        assert any("warm_start setting" in w for w in comparison.warnings)

    def test_undeclared_warm_start_downgrades_to_warning(self):
        # A baseline without a warm_start declaration: the counter
        # comparison cannot be a hard gate.
        base = _report([_run(flow_queries=100, updates=100, workers=1)])
        cur = _report(
            [_run(flow_queries=300, updates=100, workers=1)],
            warm_start=True,
        )
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries regressed" in w for w in comparison.warnings
        )

    def test_worker_mismatch_downgrades_to_warning(self):
        # A parallel search probes a different phi set, so its counters
        # are not comparable against a sequential baseline.
        base, cur = self._pair(100, 300, cur_workers=2)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any("not comparable" in w for w in comparison.warnings)

    def test_flow_solves_gated(self):
        base = _report([_run(workers=1)], warm_start=True)
        cur = _report([_run(workers=1)], warm_start=True)
        base["runs"][0]["stats"] = {"flow_solves": 100}
        cur["runs"][0]["stats"] = {"flow_solves": 200}
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "flow_solves regressed" in r for r in comparison.regressions
        )

    def test_ek_baseline_zero_dinic_counters_skipped(self):
        # The retired Dinic counters of a schema-9 report are not gated
        # at all: zero or not, growth or not, they never fail the check.
        base, cur = self._pair(100, 100)
        base["runs"][0]["stats"]["dinic_phases"] = 0
        cur["runs"][0]["stats"]["dinic_phases"] = 500
        base["runs"][0]["stats"]["arcs_advanced"] = 10
        cur["runs"][0]["stats"]["arcs_advanced"] = 5000
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert "dinic_phases" not in perf_check.GATED_COUNTERS
        assert "arcs_advanced" not in perf_check.GATED_COUNTERS

    def _assert_v8_field_ignored(self, field, value):
        # Schema-8 envelopes still declare engine/flow/kernel; the gate
        # ignores them, whatever they say, and stays hard.
        base, cur = self._pair(100, 300)
        for rep in (base, cur):
            rep["schema"] = 8
            rep["engine"], rep["flow"], rep["kernel"] = (
                "worklist", "dinic", "compiled"
            )
        base[field] = value
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "flow_queries regressed" in r for r in comparison.regressions
        )
        assert not any("only warns" in w for w in comparison.warnings)

    def test_v8_flow_mismatch_keeps_hard_gate(self):
        self._assert_v8_field_ignored("flow", "ek")

    def test_v8_kernel_mismatch_keeps_hard_gate(self):
        self._assert_v8_field_ignored("kernel", "object")

    def test_undeclared_flow_keeps_hard_gate(self):
        # A schema-8 baseline declaring flow/kernel against a schema-9
        # current run that no longer has them: the gate stays hard.
        base, cur = self._pair(100, 300)
        base["schema"] = 8
        base["flow"], base["kernel"] = "dinic", "compiled"
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok

    def test_matching_flow_kernel_hard_gate(self):
        base, cur = self._pair(100, 300)
        for rep in (base, cur):
            rep["schema"] = 8
            rep["flow"], rep["kernel"] = "dinic", "compiled"
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok

    def test_new_writer_growth_fails_against_committed_baseline(
        self, tmp_path, capsys
    ):
        # The CI gate end to end: a report from the current writer whose
        # flow_queries grew 20% must fail against benchmarks/baseline.json
        # on counters alone (phi and LUTs unchanged), with no
        # "counter growth only warns" downgrade.
        baseline = perf_report.load_report(BASELINE)
        runs = copy.deepcopy(baseline["runs"])
        for run in runs:
            stats = run.get("stats") or {}
            if stats.get("flow_queries"):
                stats["flow_queries"] = int(stats["flow_queries"] * 1.2)
        current = perf_report.suite_report(
            runs, k=baseline.get("k"), workers=baseline["workers"]
        )
        path = tmp_path / "current.json"
        perf_report.write_report(current, str(path))
        assert perf_check.main(
            [BASELINE, str(path), "--tolerance", "0.25",
             "--counter-tolerance", "0.10"]
        ) == 1
        out = capsys.readouterr().out
        assert "flow_queries regressed" in out
        assert "only warns" not in out
        assert "phi regressed" not in out

    def test_degraded_counter_regression_warns(self):
        base, cur = self._pair(100, 300)
        cur["runs"][0]["degraded"] = True
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert any(
            "flow_queries regressed" in w for w in comparison.warnings
        )

    def test_counter_gate_off(self):
        base, cur = self._pair(100, 300)
        comparison = perf_check.compare(base, cur, counter_tolerance=None)
        assert comparison.ok
        assert not comparison.warnings

    def test_counter_flags_wired_through_main(self, tmp_path):
        base, cur = self._pair(100, 300)
        base_path = tmp_path / "base.json"
        cur_path = tmp_path / "cur.json"
        base_path.write_text(json.dumps(base))
        cur_path.write_text(json.dumps(cur))
        assert perf_check.main([str(base_path), str(cur_path)]) == 1
        assert (
            perf_check.main(
                [str(base_path), str(cur_path), "--counter-tolerance", "3.0"]
            )
            == 0
        )
        assert (
            perf_check.main([str(base_path), str(cur_path), "--no-counters"])
            == 0
        )


class TestCacheCounterGate:
    """Saved-work counters gate in the *inverted* direction: losing
    cache hits between two warm runs is the regression."""

    def _pair(self, base_hits, cur_hits):
        base = _report([_run(workers=1)], warm_start=True)
        cur = _report([_run(workers=1)], warm_start=True)
        base["runs"][0]["stats"] = {"outcome_cache_hits": base_hits}
        cur["runs"][0]["stats"] = {"outcome_cache_hits": cur_hits}
        return base, cur

    def test_hit_drop_is_a_regression(self):
        base, cur = self._pair(10, 2)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert not comparison.ok
        assert any(
            "outcome_cache_hits regressed" in r
            for r in comparison.regressions
        )

    def test_hit_growth_is_an_improvement(self):
        base, cur = self._pair(10, 20)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok
        assert not comparison.regressions

    def test_cold_baseline_never_gates(self):
        # A cold baseline reports zero hits; a warm current run must
        # not be judged against it (no meaningful ratio) — the gate
        # only bites warm-vs-warm.
        base, cur = self._pair(0, 0)
        comparison = perf_check.compare(base, cur, counter_tolerance=0.10)
        assert comparison.ok

    def test_probes_skipped_and_seeds_gated_too(self):
        for counter in ("cache_probes_skipped", "cache_seeds"):
            base, cur = self._pair(0, 0)
            base["runs"][0]["stats"] = {counter: 50}
            cur["runs"][0]["stats"] = {counter: 5}
            comparison = perf_check.compare(
                base, cur, counter_tolerance=0.10
            )
            assert not comparison.ok, counter
            assert any(
                f"{counter} regressed" in r for r in comparison.regressions
            )


class TestMain:
    def _write(self, path, runs):
        path.write_text(json.dumps(_report(runs)))
        return str(path)

    def test_exit_zero_on_match(self, tmp_path, capsys):
        base = self._write(tmp_path / "base.json", [_run()])
        cur = self._write(tmp_path / "cur.json", [_run()])
        assert perf_check.main([base, cur, "--tolerance", "0.25"]) == 0
        assert "status: OK" in capsys.readouterr().out

    def test_exit_nonzero_on_degraded_quality(self, tmp_path, capsys):
        """The CI gate catches an artificially degraded result."""
        base = self._write(tmp_path / "base.json", [_run(phi=2, luts=100)])
        cur = self._write(tmp_path / "cur.json", [_run(phi=4, luts=200)])
        assert perf_check.main([base, cur, "--tolerance", "0.25"]) == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "status: FAIL" in out

    def test_exit_nonzero_when_nothing_overlaps(self, tmp_path):
        base = self._write(tmp_path / "base.json", [_run(circuit="a")])
        cur = self._write(tmp_path / "cur.json", [_run(circuit="b")])
        assert perf_check.main([base, cur]) == 1

    def test_exit_nonzero_on_missing_file(self, tmp_path):
        base = self._write(tmp_path / "base.json", [_run()])
        assert perf_check.main([base, str(tmp_path / "nope.json")]) == 1
