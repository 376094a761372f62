"""The ``repro warm`` pipeline and its interop with the live service.

PR 9's traffic-shaped store tier has three cooperating pieces this file
exercises end to end: the offline warm pipeline (precompute a corpus into
the store, resumably, with the batch service's sweep identity), the
service reading warm-written records live (no restart required -- each
record is one object file, read by the next lookup of its graph), and the
hot tier serving repeat lookups from mmap'd residents whose decoded
records stay valid across :meth:`ElectionService.close`.
"""

from __future__ import annotations

import json
import os

import pytest
from test_service import _RunningServer

from repro.core import Task, all_election_indices
from repro.runner import WarmReport, refinement_cache, warm_sweep
from repro.runner.spec import SweepSpec
from repro.scenarios.corpus import corpus_specs
from repro.service import ElectionService, deterministic_response
from repro.store import ArtifactStore


@pytest.fixture(autouse=True)
def _detached_process_cache(isolated_refinement_cache):
    yield


def _small_sweep(count: int = 4, seed: int = 11) -> SweepSpec:
    return SweepSpec.make(corpus_specs(count, seed=seed), max_states=50_000)


# --------------------------------------------------------------------------- #
# the pipeline itself
# --------------------------------------------------------------------------- #
class TestWarmSweep:
    def test_warms_every_item_into_the_store(self, tmp_path):
        sweep = _small_sweep()
        seen = []
        report = warm_sweep(
            sweep,
            str(tmp_path / "store"),
            jobs=2,
            progress=lambda done, total, label, status: seen.append((done, total, status)),
        )
        assert isinstance(report, WarmReport)
        assert report.total == len(sweep.graphs)
        assert report.warmed == report.total
        assert report.skipped == 0 and report.errors == 0
        assert report.jobs == 2
        assert report.store_stats["records"] == report.total
        # progress fired once per item, monotonically
        assert [done for done, _, _ in seen] == list(range(1, report.total + 1))
        assert all(status == "ok" for _, _, status in seen)
        # progress persisted in the batch service's format, under the store
        status_path = tmp_path / "store" / "sweeps" / f"{report.sweep_id}.json"
        persisted = json.loads(status_path.read_text())
        assert persisted["state"] == "done"
        assert persisted["items"] == "+" * report.total

    def test_resume_skips_already_completed_items(self, tmp_path):
        sweep = _small_sweep()
        store_path = str(tmp_path / "store")
        first = warm_sweep(sweep, store_path)
        second = warm_sweep(sweep, store_path)
        assert second.sweep_id == first.sweep_id
        assert second.warmed == 0
        assert second.skipped == second.total == first.total
        assert second.errors == 0
        # --no-resume recomputes (store-served, so still cheap) rather than skip
        third = warm_sweep(sweep, store_path, resume=False)
        assert third.warmed == third.total and third.skipped == 0

    def test_partial_progress_resumes_where_it_stopped(self, tmp_path):
        sweep = _small_sweep()
        store_path = str(tmp_path / "store")
        report = warm_sweep(sweep, store_path)
        # simulate an interrupted run: rewrite the status with one item pending
        status_path = os.path.join(store_path, "sweeps", f"{report.sweep_id}.json")
        persisted = json.loads(open(status_path).read())
        persisted["items"] = "+" * (report.total - 1) + "."
        persisted["completed"] = persisted["ok"] = report.total - 1
        persisted["state"] = "running"
        with open(status_path, "w") as handle:
            json.dump(persisted, handle)
        resumed = warm_sweep(sweep, store_path)
        assert resumed.warmed == 1
        assert resumed.skipped == report.total - 1

    def test_compact_after_warm_reports_summary(self, tmp_path):
        report = warm_sweep(_small_sweep(), str(tmp_path / "store"), compact=True)
        assert report.compaction is not None
        assert report.compaction == {
            "removed_quarantined": 0,
            "removed_tmp": 0,
            "removed_corrupt": 0,
            "live_records": report.total,
        }

    def test_empty_sweep_is_an_error(self, tmp_path):
        with pytest.raises(ValueError):
            warm_sweep(SweepSpec.make(()), str(tmp_path / "store"))


# --------------------------------------------------------------------------- #
# CLI
# --------------------------------------------------------------------------- #
class TestWarmCli:
    def test_warm_then_resume_roundtrip(self, tmp_path, capsys):
        from repro.cli import main

        store = str(tmp_path / "store")
        argv = ["warm", "--store", store, "--corpus", "mixed", "--count", "4",
                "--seed", "5", "--jobs", "2", "--quiet"]
        assert main(argv) == 0
        sweep_id = capsys.readouterr().out.strip()
        assert sweep_id and all(c in "0123456789abcdef" for c in sweep_id)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == sweep_id
        assert "4 resumed" in captured.err

    def test_warm_spec_file(self, tmp_path, capsys):
        from repro.cli import main

        sweep = _small_sweep(count=2)
        spec_path = tmp_path / "sweep.json"
        spec_path.write_text(json.dumps(sweep.to_dict()))
        assert main(["warm", "--store", str(tmp_path / "store"),
                     "--spec", str(spec_path), "--quiet"]) == 0
        assert ArtifactStore(str(tmp_path / "store")).stats()["records"] == 2


# --------------------------------------------------------------------------- #
# service interop
# --------------------------------------------------------------------------- #
class TestWarmServiceInterop:
    def test_warm_progress_is_readable_as_a_service_sweep(self, tmp_path):
        """The warm run's id *is* a batch-service sweep id on a shared store."""
        sweep = _small_sweep()
        store_path = str(tmp_path / "store")
        shared = {"tasks": ["S", "PE", "PPE", "CPPE"], "max_states": 50_000}
        report = warm_sweep(sweep, store_path, shared=shared)
        store = ArtifactStore(store_path)
        with _RunningServer(ElectionService(store=store, workers=1)) as running:
            status = running.get(f"/sweeps/{report.sweep_id}")
        assert status["total"] == report.total
        assert status["completed"] == report.total
        assert status["state"] == "done"

    def test_live_service_picks_up_warm_writes_without_restart(
        self, tmp_path, real_refinement_passes
    ):
        """Warm into a store a running service already serves from: the next
        query must be a store hit (zero refinement passes) and byte-identical
        to the cold-computed answer -- no restart, no cache flush."""
        sweep = _small_sweep(count=3, seed=23)
        store_path = str(tmp_path / "store")
        store = ArtifactStore(store_path, hot_tier_bytes=8 * 1024 * 1024)
        service = ElectionService(store=store, workers=1)
        with _RunningServer(service) as running:
            # warm lands while the service is live (separate store handle)
            warm_sweep(sweep, store_path, shared={"max_states": 50_000})
            cold_passes = real_refinement_passes.count
            assert cold_passes == refinement_cache.refinement_passes > 0
            # the in-process warm populated the process-wide cache; flush it
            # so the service's next query genuinely reads the store
            refinement_cache.clear()
            spec = sweep.graphs[0]
            payload = {"spec": spec.to_dict(), "max_states": 50_000}
            before = refinement_cache.refinement_passes
            first = running.post("/election", payload)
            assert refinement_cache.refinement_passes == before, (
                "a warm-written record should replay with zero refinement passes"
            )
            assert real_refinement_passes.count == cold_passes
            # byte-identity against the direct in-process computation
            graph = spec.build()
            direct = all_election_indices(graph)
            assert first["indices"] == {
                task.value: direct[task] for task in Task.ordered()
            }
            # repeat queries after cache flushes exercise the store path:
            # touch 2 admits the record into the hot tier, touch 3 serves
            # from it -- all while the service stays up
            refinement_cache.clear()
            second = running.post("/election", payload)
            refinement_cache.clear()
            third = running.post("/election", payload)
            assert deterministic_response(first) == deterministic_response(second)
            assert deterministic_response(second) == deterministic_response(third)
            stats = running.get("/stats")
            assert stats["store"]["hot_admissions"] >= 1
            assert stats["store"]["hot_hits"] >= 1
            assert stats["service"]["hot_tier_bytes"] == 8 * 1024 * 1024

    def test_hot_and_cold_serving_are_byte_identical(self, tmp_path):
        """A hot-tier service answering from a warmed store and a cold
        store-less service answer every corpus query identically."""
        sweep = _small_sweep(count=3, seed=31)
        store_path = str(tmp_path / "store")
        warm_sweep(sweep, store_path, shared={"max_states": 50_000})
        refinement_cache.clear()  # make the hot service read the store
        payloads = [
            {"spec": spec.to_dict(), "max_states": 50_000} for spec in sweep.graphs
        ]
        hot_service = ElectionService(
            store=ArtifactStore(store_path, hot_tier_bytes=4 * 1024 * 1024), workers=1
        )
        with _RunningServer(hot_service) as running:
            hot = [deterministic_response(running.post("/election", p)) for p in payloads]
            assert running.get("/stats")["store"]["hits"] > 0
        refinement_cache.clear()  # make the cold service actually compute
        with _RunningServer(ElectionService(workers=1)) as running:
            cold = [deterministic_response(running.post("/election", p)) for p in payloads]
        assert hot == cold

    def test_hot_records_outlive_service_close(self, tmp_path):
        """Decoded hot-tier records stay valid after close() unmaps buffers."""
        sweep = _small_sweep(count=2, seed=41)
        store_path = str(tmp_path / "store")
        warm_sweep(sweep, store_path, shared={"max_states": 50_000})
        store = ArtifactStore(store_path, hot_tier_bytes=4 * 1024 * 1024)
        service = ElectionService(store=store, workers=1)
        key = store.keys()[0]
        store.get(key)  # doorkeeper touch
        record = store.get(key)  # admitted: decoded off the mmap'd resident
        assert record is not None
        assert store.hot_tier is not None and store.hot_tier.counters()["hot_entries"] >= 1
        service.close()
        # the mapping is released, yet every value was copied out of the
        # buffer at decode time: re-encoding walks them all and must still
        # round-trip byte-exactly
        assert record.to_bytes() == store.get_bytes(key)
        # and the store still serves cold reads after close
        assert store.get(key) is not None

    def test_sweep_id_matches_batch_item_expansion(self, tmp_path):
        """warm's sweep id is the id the batch coordinator gives the same
        declarative sweep (the interop the shared progress record rests on)."""
        from repro.service.batch import BatchCoordinator, sweep_digest, sweep_items

        sweep = _small_sweep(count=2)
        shared = {"tasks": ["S"], "max_states": 1000}
        body = {"sweep": dict(shared, corpus="mixed", count=2, seed=11)}
        service = ElectionService(workers=1)
        try:
            request = BatchCoordinator(service).prepare(json.dumps(body).encode("utf-8"))
        finally:
            service.close()
        items = sweep_items(sweep.graphs, shared)
        assert [item.payload for item in request.items] == items
        assert sweep_digest(items) == request.sweep_id
        report = warm_sweep(sweep, str(tmp_path / "store"), shared=shared)
        assert report.sweep_id == request.sweep_id

    def test_warm_and_served_sweep_cli_share_one_sweep_and_record(self, tmp_path, capsys):
        """``repro warm`` and ``repro sweep --url`` of one corpus, against one
        store and one live server, name the same sweep; the service reads its
        record as done, and a second warm resumes from the record the service
        wrote."""
        from repro.cli import main

        store_path = str(tmp_path / "store")
        corpus = ["--corpus", "mixed", "--count", "4", "--seed", "5"]
        assert main(["warm", "--store", store_path, *corpus, "--quiet"]) == 0
        warm_id = capsys.readouterr().out.strip()
        service = ElectionService(store=ArtifactStore(store_path), workers=1)
        with _RunningServer(service) as running:
            assert main(["sweep", "--url", running.base, *corpus]) == 0
            lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
            status = running.get(f"/sweeps/{warm_id}")
            listed = running.get("/sweeps")["sweeps"]
        assert lines[0]["sweep"] == warm_id
        trailer = lines[-1]
        assert (trailer["sweep"], trailer["status"], trailer["ok"]) == (warm_id, "done", 4)
        assert status["state"] == "done" and status["items"] == "++++"
        assert listed == [warm_id]
        assert main(["warm", "--store", store_path, *corpus]) == 0
        captured = capsys.readouterr()
        assert captured.out.strip() == warm_id
        assert "4 resumed" in captured.err
