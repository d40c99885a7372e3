"""Cache-key semantics: stability, invalidation, collision safety."""

import json

import pytest

from repro.core.params import BoundParams
from repro.parallel import ResultCache, SimTask, run_task, task_digest
from repro.parallel.cache import RESULT_FILENAME

PARAMS = BoundParams(2048, 32, 8.0)


def _task(**overrides):
    spec = dict(params=PARAMS, manager="first-fit", program="pf")
    spec.update(overrides)
    return SimTask.build(spec.pop("params"), spec.pop("manager"),
                         spec.pop("program"), **spec)


class TestTaskDigest:
    def test_stable_across_instances(self):
        assert task_digest(_task()) == task_digest(_task())

    def test_every_field_is_load_bearing(self):
        base = task_digest(_task())
        assert task_digest(_task(manager="best-fit")) != base
        assert task_digest(_task(program="robson")) != base
        assert task_digest(_task(params=BoundParams(4096, 32, 8.0))) != base
        assert task_digest(_task(params=BoundParams(2048, 64, 8.0))) != base
        assert task_digest(_task(params=BoundParams(2048, 32, 4.0))) != base
        assert task_digest(_task(density_exponent=3)) != base

    def test_code_version_invalidates(self):
        task = _task()
        assert (task_digest(task, code_version="0.1+cache1")
                != task_digest(task, code_version="0.2+cache1"))

    def test_roundtrips_through_dict(self):
        task = _task(density_exponent=3)
        clone = SimTask.from_dict(json.loads(json.dumps(task.to_dict())))
        assert clone == task
        assert task_digest(clone) == task_digest(task)


class TestResultCache:
    def test_miss_on_empty(self, tmp_path):
        assert ResultCache(tmp_path).get(_task()) is None

    def test_hit_after_recorded_run(self, tmp_path):
        cache = ResultCache(tmp_path)
        executed = run_task(_task(), record_root=str(tmp_path))
        hit = cache.get(_task())
        assert hit is not None
        assert hit.from_cache
        assert hit == executed  # wall_seconds/from_cache excluded

    def test_incomplete_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        run_task(_task(), record_root=str(tmp_path))
        (cache.entry_dir(_task()) / RESULT_FILENAME).unlink()
        assert cache.get(_task()) is None

    def test_task_mismatch_is_a_miss(self, tmp_path):
        # A result stored under the wrong key (collision / tampering)
        # must not be returned for the colliding task.
        cache = ResultCache(tmp_path)
        run_task(_task(), record_root=str(tmp_path))
        other = _task(manager="best-fit")
        wrong_dir = cache.entry_dir(other)
        wrong_dir.mkdir()
        source = cache.entry_dir(_task()) / RESULT_FILENAME
        (wrong_dir / RESULT_FILENAME).write_text(source.read_text())
        assert cache.get(other) is None

    def test_execution_count_starts_at_zero(self, tmp_path):
        assert ResultCache(tmp_path).execution_count() == 0


class TestSolveResultCache:
    """Solve entries share the directory but never a key."""

    def _solve_cache(self, tmp_path):
        from repro.parallel.tasks import SolveResult

        return ResultCache(tmp_path, result_type=SolveResult)

    def _store(self, cache, result):
        from repro.parallel.tasks import _write_json_atomic

        entry = cache.entry_dir(result.task)
        entry.mkdir(parents=True, exist_ok=True)
        payload = result.to_dict()
        payload["cache_key"] = cache.key_for(result.task)
        _write_json_atomic(entry / RESULT_FILENAME, payload)

    def test_roundtrip(self, tmp_path):
        from repro.parallel.tasks import SolveTask, run_solve_task

        cache = self._solve_cache(tmp_path)
        task = SolveTask(live_bound=4, max_object=2)
        assert cache.get(task) is None
        executed = run_solve_task(task)
        self._store(cache, executed)
        hit = cache.get(task)
        assert hit is not None
        assert hit.from_cache
        assert hit == executed  # wall_seconds/from_cache excluded
        assert hit.minimum_heap_words == 5

    def test_every_field_is_load_bearing(self, tmp_path):
        from repro.parallel.tasks import SolveTask

        base = task_digest(SolveTask(4, 2))
        assert task_digest(SolveTask(5, 2)) != base
        assert task_digest(SolveTask(4, 3)) != base
        assert task_digest(SolveTask(4, 2, power_of_two_sizes=False)) != base
        assert task_digest(SolveTask(4, 2, move_budget=1)) != base

    def test_solve_keys_disjoint_from_sim_keys(self):
        from repro.parallel.tasks import SolveTask

        # Even a shared directory cannot alias the two families: the
        # solve spec embeds "kind": "exact-solve".
        solve_keys = {task_digest(SolveTask(m, 2)) for m in (2, 4, 6)}
        assert task_digest(_task()) not in solve_keys

    def test_digest_is_jobs_invariant(self):
        from repro.parallel.tasks import SolveTask, run_solve_task

        task = SolveTask(live_bound=4, max_object=2)
        first = run_solve_task(task)
        second = run_solve_task(task, search="linear")
        # Search order may differ (different probes => different
        # digest), but the same search is bit-stable.
        assert first.event_digest == run_solve_task(task).event_digest
        assert first.minimum_heap_words == second.minimum_heap_words


class TestUnknownProgram:
    def test_run_task_rejects_unknown_program(self):
        with pytest.raises(ValueError, match="unknown program"):
            run_task(SimTask.build(PARAMS, "first-fit", "nonesuch"))
