"""Smoke tests for the kernel microbenchmark harness."""

import json

from repro.bench import suite as bench_suite
from repro.perf import microbench
from repro.perf.report import SCHEMA_VERSION

CELLS = {"ek+compiled", "dinic+compiled"}


class TestBenchCircuit:
    def test_rows_cover_the_matrix(self):
        circuit = bench_suite.build("bbara")
        res = microbench.bench_circuit(circuit, k=5, repeats=1)
        assert set(res["cells"]) == CELLS
        for sample in res["cells"].values():
            assert sample["flow_queries"] > 0
            assert sample["t_flow"] >= 0.0
            assert sample["us_per_query"] >= 0.0
        # The matrix runs at extra_depth=1, where expansions have
        # candidate copies and the flow engines still run.
        assert res["extra_depth"] == microbench.EXTRA_DEPTH == 1
        assert res["cells"]["dinic+compiled"]["dinic_phases"] > 0
        assert res["cells"]["ek+compiled"]["dinic_phases"] == 0
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
        assert "bbara/dinic+compiled" in payload["rows"]
        assert payload["rows"]["bbara/dinic+compiled"]["extra_depth"] == 1
        assert "envelope" not in payload
