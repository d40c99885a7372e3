"""Serial/parallel equivalence and cache behaviour of the engine.

The load-bearing property: the *same grid* run at any ``--jobs`` value,
cold or warm cache, produces byte-identical results — anchored by the
canonical event digest every task computes.
"""

import pytest

from repro.analysis.sweep import simulation_sweep, sweep_to_csv
from repro.core.params import BoundParams
from repro.parallel import ParallelEngine, ResultCache, SimTask, run_task

#: Small enough that a 12-task grid finishes in seconds even serially.
BASE = BoundParams(live_space=2048, max_object=32)
GRID = (5.0, 10.0)
MANAGERS = ("first-fit", "best-fit")


def _tasks():
    return [
        SimTask.build(BASE.with_compaction(c), manager, "pf")
        for c in GRID
        for manager in MANAGERS
    ]


class TestEquivalence:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_parallel_matches_serial(self, jobs):
        serial = ParallelEngine(jobs=1).run(_tasks())
        parallel = ParallelEngine(jobs=jobs).run(_tasks())
        # TaskResult equality covers every scalar plus the event digest
        # (wall_seconds/from_cache are compare=False).
        assert serial == parallel
        assert [r.event_digest for r in serial] == \
               [r.event_digest for r in parallel]

    def test_sweep_rows_and_csv_identical_across_jobs(self):
        by_jobs = {
            jobs: simulation_sweep(BASE, GRID, MANAGERS, jobs=jobs)
            for jobs in (1, 2, 4)
        }
        assert by_jobs[1] == by_jobs[2] == by_jobs[4]
        csvs = {sweep_to_csv(rows, MANAGERS) for rows in by_jobs.values()}
        assert len(csvs) == 1

    def test_grid_digest_identical_across_jobs(self):
        digests = set()
        for jobs in (1, 2):
            engine = ParallelEngine(jobs=jobs)
            engine.run(_tasks())
            digests.add(engine.stats.grid_digest)
        assert len(digests) == 1
        assert digests.pop()  # non-empty


class TestCache:
    def test_cold_run_executes_everything(self, tmp_path):
        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        results = engine.run(_tasks())
        assert engine.stats.executed == len(results) == 4
        assert engine.stats.cache_hits == 0
        assert all(not r.from_cache for r in results)
        # The execution manifest counts exactly the simulations run.
        assert ResultCache(tmp_path).execution_count() == 4

    def test_warm_run_executes_nothing(self, tmp_path):
        cold_engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        cold = cold_engine.run(_tasks())
        warm_engine = ParallelEngine(jobs=2, cache_dir=tmp_path)
        warm = warm_engine.run(_tasks())
        assert warm_engine.stats.executed == 0
        assert warm_engine.stats.cache_hits == len(cold)
        assert all(r.from_cache for r in warm)
        assert cold == warm
        assert cold_engine.stats.grid_digest == warm_engine.stats.grid_digest
        # No new manifest lines: the warm run did zero simulations.
        assert ResultCache(tmp_path).execution_count() == len(cold)

    def test_partial_hit_executes_only_the_new_points(self, tmp_path):
        ParallelEngine(jobs=1, cache_dir=tmp_path).run(_tasks()[:2])
        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        engine.run(_tasks())
        assert engine.stats.cache_hits == 2
        assert engine.stats.executed == 2
        assert ResultCache(tmp_path).execution_count() == 4

    def test_cached_results_match_uncached(self, tmp_path):
        uncached = ParallelEngine(jobs=1).run(_tasks())
        ParallelEngine(jobs=1, cache_dir=tmp_path).run(_tasks())
        cached = ParallelEngine(jobs=1, cache_dir=tmp_path).run(_tasks())
        assert uncached == cached

    def test_cache_entries_pass_repro_check(self, tmp_path, capsys):
        import json

        from repro.check import DEFAULT_CHECKERS, check_run_directory
        from repro.cli import main

        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        engine.run(_tasks()[:2])
        entries = engine.cache.entry_dirs()
        assert len(entries) == 2
        for entry in entries:
            # No event stream is archived: manifest + result only.
            assert sorted(p.name for p in entry.iterdir()) == \
                ["manifest.json", "result.json"]
            manifest = json.loads((entry / "manifest.json").read_text())
            report = check_run_directory(entry)
            assert report.ok, report.describe()
            assert "replayed" in report.notes
            assert [c.name for c in report.checkers] == \
                [checker.name for checker in DEFAULT_CHECKERS]
            assert report.event_count == manifest["event_count"]
            assert report.notes["event_digest"] == manifest["event_digest"]

            assert main(["check", str(entry), "--replay"]) == 0
            out = capsys.readouterr().out
            assert "replayed: task spec" in out
            assert "replay: deterministic" in out

        # The report names the route to a full stream.
        entry = entries[0]
        assert main(["report", str(entry)]) == 0
        assert "repro simulate --telemetry" in capsys.readouterr().out

        # An edited digest no longer matches the replayed stream.
        manifest = json.loads((entry / "manifest.json").read_text())
        manifest["event_digest"] = "0" * 64
        (entry / "manifest.json").write_text(json.dumps(manifest))
        assert main(["check", str(entry)]) == 1
        assert "digest-mismatch" in capsys.readouterr().out
        assert main(["check", str(entry), "--replay"]) == 1
        assert "DIGEST MISMATCH" in capsys.readouterr().out

    def test_entry_without_task_spec_still_fails(self, tmp_path, capsys):
        # Neither events.jsonl nor config.task: nothing to replay, so
        # the empty stream cannot match the recorded digest.
        import json

        from repro.cli import main

        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        engine.run(_tasks()[:1])
        entry = engine.cache.entry_dirs()[0]
        manifest = json.loads((entry / "manifest.json").read_text())
        del manifest["config"]["task"]
        (entry / "manifest.json").write_text(json.dumps(manifest))
        assert main(["check", str(entry)]) == 1
        assert "digest-mismatch" in capsys.readouterr().out

    def test_entry_manifests_match_pinned_digests(self, tmp_path):
        # Recorded with the event stream still archived in every entry:
        # dropping the archive must not move a digest, a count or a key.
        import json

        pinned = {
            "dbab4b90c2b02e340ef423364f192e5b1a36b8448c1ac1e6d8fb8843adea51eb":
                ("5b4fb32f19548a45611a16b97482f48c430f03adccb683dc1c5cf37ae76c6444",
                 6466),
            "55b2b33544801f469dd7b148da840ea8d25390a1c602db8e45b97154c5b4173e":
                ("5b4fb32f19548a45611a16b97482f48c430f03adccb683dc1c5cf37ae76c6444",
                 6466),
            "29e58fe840ad642ade237ad3ae74a8ef930a4e0d9400bf9c84dd00513be7fc02":
                ("d2f567aa72b5bfa83083e6e0cf7b4fbf2623e052deb57828517b4439cf3e42e0",
                 6456),
            "b0d2abcf15ee313119a0f2f838254a9ba9f32e378fa8996f21ebf6a64f3f590b":
                ("d2f567aa72b5bfa83083e6e0cf7b4fbf2623e052deb57828517b4439cf3e42e0",
                 6456),
        }
        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        engine.run(_tasks())
        found = {}
        for entry in engine.cache.entry_dirs():
            manifest = json.loads((entry / "manifest.json").read_text())
            found[entry.name] = (manifest["event_digest"],
                                 manifest["event_count"])
        assert found == pinned

    def test_sweep_cache_stays_small(self, tmp_path):
        # The 15-point M=2048 sweep: 10.4 MB while entries archived
        # events.jsonl, ~0.2 MB of manifests and results without.
        from repro.analysis.sweep import simulation_sweep

        engine = ParallelEngine(jobs=1, cache_dir=tmp_path)
        rows = simulation_sweep(
            BoundParams(2048, 128), (5.0, 10.0, 20.0, 50.0, 100.0),
            ("first-fit", "best-fit", "sliding-compactor"), engine=engine)
        assert len(rows) == 5 and engine.stats.executed == 15
        size = sum(path.stat().st_size for path in tmp_path.rglob("*")
                   if path.is_file())
        assert size < 1_000_000


class TestEngineBasics:
    def test_rejects_nonpositive_jobs(self):
        with pytest.raises(ValueError):
            ParallelEngine(jobs=0)

    def test_empty_grid(self):
        engine = ParallelEngine(jobs=2)
        assert engine.run([]) == []
        assert engine.stats.total == 0

    def test_run_task_digest_matches_recorded_manifest(self, tmp_path):
        # The digest computed on the fly equals the one a recorded run
        # stores in its manifest — same canonical byte stream.
        import json

        task = _tasks()[0]
        plain = run_task(task)
        recorded = run_task(task, record_root=str(tmp_path))
        assert plain.event_digest == recorded.event_digest
        entry = next(p for p in tmp_path.iterdir() if p.is_dir())
        manifest = json.loads((entry / "manifest.json").read_text())
        assert manifest["event_digest"] == plain.event_digest
