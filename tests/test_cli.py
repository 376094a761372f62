"""Tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_indices_command(self, capsys):
        assert main(["indices", "--generator", "asymmetric-cycle", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "ψ_Z(G)" in out
        assert "Selection" in out
        assert "Complete Port Path Election" in out

    def test_indices_on_infeasible_graph(self, capsys):
        assert main(["indices", "--generator", "cycle", "--size", "6"]) == 0
        out = capsys.readouterr().out
        assert "None" in out

    def test_family_gdk(self, capsys):
        assert main(["family", "gdk", "--delta", "4", "--k", "1", "--index", "2"]) == 0
        out = capsys.readouterr().out
        assert "selection index" in out

    def test_family_udk_template(self, capsys):
        assert main(["family", "udk", "--delta", "4", "--k", "1", "--template"]) == 0
        out = capsys.readouterr().out
        assert "feasible" in out

    def test_family_jmuk_requires_k_at_least_4(self, capsys):
        assert main(["family", "jmuk", "--mu", "2", "--k", "2"]) == 2

    def test_counts_command(self, capsys):
        assert main(["counts", "--delta", "5", "--k", "2", "--mu", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gdk_class_size"] == str(4**12)

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestBenchCommand:
    def test_generator_sweep_text(self, capsys):
        assert main(["bench", "--generator", "asymmetric-cycle", "--sizes", "5,6"]) == 0
        out = capsys.readouterr().out
        assert "asymmetric-cycle(n=5)" in out
        assert "psi_CPPE" in out

    def test_graph_option_and_json(self, capsys):
        assert main([
            "bench", "--graph", "gdk:delta=4,k=1,index=2", "--tasks", "S", "--format", "json",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "psi_S" in payload["columns"]
        assert payload["rows"][0][payload["columns"].index("psi_S")] == 1

    def test_repeat_with_cache_stats(self, capsys):
        assert main([
            "bench", "--generator", "star", "--sizes", "3,4",
            "--repeat", "2", "--cache-stats", "--format", "csv",
        ]) == 0
        captured = capsys.readouterr()
        assert "new refinement passes=0" in captured.err.splitlines()[-1]
        assert captured.out.startswith("graph,")

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "table.csv"
        assert main([
            "bench", "--generator", "path", "--sizes", "4", "--tasks", "S,PE",
            "--format", "csv", "--output", str(target),
        ]) == 0
        assert target.read_text().startswith("graph,n,m")

    def test_spec_file(self, tmp_path, capsys):
        from repro.runner import GraphSpec, SweepSpec

        spec_path = tmp_path / "sweep.json"
        sweep = SweepSpec.make([GraphSpec.make("three-node-line")], tasks=[])
        spec_path.write_text(sweep.to_json())
        assert main(["bench", "--spec", str(spec_path), "--format", "csv"]) == 0
        assert "three-node-line" in capsys.readouterr().out

    def test_no_graphs_is_an_error(self, capsys):
        assert main(["bench"]) == 2
        assert "no graphs to sweep" in capsys.readouterr().err

    def test_malformed_graph_option(self, capsys):
        assert main(["bench", "--graph", "path:oops"]) == 2
        assert "malformed" in capsys.readouterr().err

    def test_wrong_parameter_name_is_a_clean_error(self, capsys):
        assert main(["bench", "--graph", "grid:n=4"]) == 2
        assert "invalid parameters for graph kind 'grid'" in capsys.readouterr().err

    def test_out_of_range_family_index_is_a_clean_error(self, capsys):
        assert main(["bench", "--graph", "gdk:delta=4,k=1,index=99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("bench: ")

    def test_profile_prints_stage_table(self, capsys):
        assert main([
            "bench", "--generator", "star", "--sizes", "3,4",
            "--tasks", "S", "--format", "csv", "--profile",
        ]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("graph,"), "the table itself is unchanged"
        assert "bench --profile: trace bench-" in captured.err
        assert "evaluate_graph" in captured.err
        assert "total_ms" in captured.err


class TestSweepTraceOut:
    def test_trace_out_writes_jsonl_spans(self, tmp_path, capsys):
        trace_file = tmp_path / "spans.jsonl"
        assert main([
            "sweep", "--corpus", "mixed", "--count", "3", "--seed", "1",
            "--tasks", "S", "--output", str(tmp_path / "out.ndjson"),
            "--trace-out", str(trace_file),
        ]) == 0
        err = capsys.readouterr().err
        assert "appended trace sweep-" in err
        spans = [json.loads(line) for line in trace_file.read_text().splitlines()]
        names = {span["name"] for span in spans}
        assert "evaluate_graph" in names and "sweep" in names
        trace_ids = {span["trace_id"] for span in spans}
        assert len(trace_ids) == 1, "one sweep, one trace"

    def test_trace_out_refuses_remote_mode(self, capsys):
        assert main([
            "sweep", "--url", "http://localhost:1", "--trace-out", "/tmp/x.jsonl",
        ]) == 2
        assert "--trace-out" in capsys.readouterr().err


class TestServeCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["serve", "--backend", "process"],
            ["serve", "--shards", "2"],
            ["serve", "--recycle-after", "3"],
            ["verify", "--jobs", "5"],
            ["verify", "--recycle-after", "3"],
            ["verify", "--protocol", "worker"],
        ],
        ids=lambda argv: "-".join(part.lstrip("-") for part in argv),
    )
    def test_compute_backend_options_are_usage_errors(self, argv, capsys):
        """The service computes on its thread pool alone: the options of the
        sharded process backend are gone, and naming one is exit code 2.
        Parsed only, so a regression fails here instead of serving."""
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert argv[1] in capsys.readouterr().err

    def test_serve_refuses_an_empty_compute_pool(self, monkeypatch, capsys):
        from repro.service import server as server_module

        def no_listener(*args, **kwargs):
            raise AssertionError("serve --workers 0 must fail before listening")

        monkeypatch.setattr(server_module, "ElectionServer", no_listener)
        assert main(["serve", "--workers", "0"]) == 2
        assert "serve: workers must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("with_store", [True, False])
    def test_serve_default_flags_give_a_store_a_64_mib_hot_tier(
        self, monkeypatch, tmp_path, with_store
    ):
        """``--hot-tier-mb`` (default 64) sizes the store's hot tier, which
        ``/stats`` reports; without ``--store`` serve starts with none."""
        from repro.service import server as server_module

        class Stop(Exception):
            pass

        seen = {}

        def no_listener(service, **kwargs):
            seen["hot_tier_bytes"] = service.stats()["service"]["hot_tier_bytes"]
            service.close()
            raise Stop

        monkeypatch.setattr(server_module, "ElectionServer", no_listener)
        argv = ["serve", "--workers", "1"]
        if with_store:
            argv += ["--store", str(tmp_path)]
        with pytest.raises(Stop):
            main(argv)
        assert seen == {"hot_tier_bytes": 64 * 1024 * 1024 if with_store else 0}

    def test_serve_refuses_a_negative_hot_tier_for_a_store(self, tmp_path, capsys):
        argv = ["serve", "--store", str(tmp_path), "--hot-tier-mb", "-1"]
        assert main(argv) == 2
        assert "serve: the hot tier's budget must be at least 1 byte" in capsys.readouterr().err

    def test_serve_port_file_metrics_and_trace_roundtrip(self, tmp_path):
        """``serve --port 0 --port-file``: the file appears only once the
        listener is up, carries the real bound port, and the server answers
        ``/healthz``, ``/metrics`` and ``/stats`` (trace echoed) through it —
        the exact contract the CI smoke scripts against."""
        import json as json_module
        import os
        import subprocess
        import sys
        import time
        import urllib.request

        port_file = tmp_path / "serve.port"
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
        process = subprocess.Popen(
            [
                sys.executable, "-m", "repro.cli", "serve",
                "--port", "0", "--port-file", str(port_file), "--workers", "1",
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            deadline = time.time() + 30
            while time.time() < deadline and not port_file.exists():
                assert process.poll() is None, "serve exited before binding"
                time.sleep(0.05)
            port = int(port_file.read_text().strip())
            base = f"http://127.0.0.1:{port}"
            with urllib.request.urlopen(f"{base}/healthz", timeout=10) as response:
                health = json_module.loads(response.read())
            assert health["status"] == "ok"
            with urllib.request.urlopen(f"{base}/metrics", timeout=10) as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                scrape = response.read().decode("utf-8")
            assert "# TYPE repro_requests_total counter" in scrape
            assert "# TYPE repro_request_seconds histogram" in scrape
            with urllib.request.urlopen(f"{base}/stats", timeout=10) as response:
                stats = json_module.loads(response.read())
            assert health["trace_id"] in {
                entry["trace_id"] for entry in stats["traces"]["recent"]
            }
        finally:
            process.terminate()
            process.wait(timeout=10)
