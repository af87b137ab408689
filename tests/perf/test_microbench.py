"""Smoke tests for the kernel microbenchmark harness."""

import json

from repro.bench import suite as bench_suite
from repro.perf import microbench
from repro.perf.report import SCHEMA_VERSION


class TestBenchCircuit:
    def test_rows_cover_the_matrix(self):
        circuit = bench_suite.build("bbara")
        res = microbench.bench_circuit(circuit, k=5, repeats=2)
        sample = res[microbench.CELL]
        assert sample["flow_queries"] > 0
        assert sample["t_flow"] >= 0.0
        assert sample["us_per_query"] >= 0.0
        # The run is at extra_depth=1, where expansions have candidate
        # copies and some cut queries still run a max-flow.
        assert res["extra_depth"] == microbench.EXTRA_DEPTH == 1
        assert 0 < sample["flow_solves"] <= sample["flow_queries"]
        assert res["phi"] >= 1

    def test_handoff_bytes(self):
        circuit = bench_suite.build("bbara")
        sizes = microbench.handoff_bytes(circuit)
        assert sizes["csr_blob"] < sizes["pickled_circuit"]
        handle_sizes = [
            v for k, v in sizes.items() if k.startswith("handle_")
        ]
        assert len(handle_sizes) == 1


class TestCli:
    def test_main_writes_bench_json(self, tmp_path, capsys):
        rc = microbench.main(
            [
                "--circuits", "bbara", "--repeats", "1",
                "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "kernel microbench" in out
        payload = json.loads((tmp_path / "BENCH_microbench.json").read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["kind"] == "bench-table"
        assert any(row.endswith("/handoff") for row in payload["rows"])
        assert set(payload["rows"]) == {"bbara/labels", "bbara/handoff"}
        assert payload["rows"]["bbara/labels"]["extra_depth"] == 1
        assert payload["rows"]["bbara/labels"]["flow_solves"] > 0
        assert "envelope" not in payload
