"""Tests of the run cache: its in-memory level and its persistent (on-disk) level."""

import pickle

from repro.experiments.scenario import Scenario
from repro.parallel.cache import CACHE_FORMAT, RunCache
from repro.parallel.executor import SweepExecutor
from repro.workload.params import WorkloadParams


def small_params(**kw):
    defaults = dict(num_processes=4, num_resources=8, phi=2, duration=400.0, warmup=50.0)
    defaults.update(kw)
    return WorkloadParams(**defaults)


class TestRunCache:
    def test_get_put_and_counters(self):
        cache = RunCache()
        assert cache.get("k") is None
        cache.put("k", "result")
        assert cache.get("k") == "result"
        assert len(cache) == 1
        assert (cache.hits, cache.misses) == (1, 1)


class TestDiskRoundTrip:
    def test_results_survive_cache_instances(self, tmp_path):
        """A fresh RunCache on the same directory sees earlier results —
        the cross-process / cross-invocation persistence contract."""
        scenario = Scenario(algorithm="with_loan", params=small_params())
        writer = SweepExecutor(workers=1, cache=RunCache(path=tmp_path))
        (first,) = writer.run([scenario])

        reader_cache = RunCache(path=tmp_path)
        reader = SweepExecutor(workers=1, cache=reader_cache)
        (second,) = reader.run([scenario])
        assert reader_cache.hits == 1 and reader_cache.misses == 0
        assert second.metrics == first.metrics
        assert second.events_processed == first.events_processed

    def test_put_get_across_instances(self, tmp_path):
        RunCache(path=tmp_path).put("k", "result")
        assert RunCache(path=tmp_path).get("k") == "result"

    def test_put_writes_the_highest_protocol_pickle(self, tmp_path):
        """The two-argument form (what ``benchmarks/e2e`` probes call)
        pickles the result itself."""
        cache = RunCache(path=tmp_path)
        cache.put("k", {"a": 1})
        assert cache._file("k").read_bytes() == pickle.dumps(
            {"a": 1}, protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_put_with_pickled_writes_those_bytes(self, tmp_path):
        """A caller that already holds the pickle hands it over; the entry
        file is those bytes and the result is not pickled again."""

        class Unpicklable:
            def __reduce__(self):
                raise AssertionError("put() pickled a result it was given the bytes of")

        cache = RunCache(path=tmp_path)
        result, pickled = Unpicklable(), pickle.dumps("what the worker sent")
        cache.put("k", result, pickled)
        assert cache.get("k") is result  # memory level: the object itself
        assert cache._file("k").read_bytes() == pickled
        assert RunCache(path=tmp_path).get("k") == "what the worker sent"

    def test_memory_only_put_ignores_the_pickle(self):
        cache = RunCache()
        cache.put("k", "result", b"unused")
        assert cache.get("k") == "result"

    def test_memory_only_default_unchanged(self, tmp_path):
        cache = RunCache()
        cache.put("k", "result")
        assert cache.path is None
        assert not list(tmp_path.iterdir())

    def test_entries_namespaced_by_code_fingerprint(self, tmp_path, monkeypatch):
        """Results computed by different code must never be served as
        current — each fingerprint gets its own namespace."""
        from repro.parallel import cache as cache_module

        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "codehash-a")
        RunCache(path=tmp_path).put("k", "old result")
        monkeypatch.setattr(cache_module, "code_fingerprint", lambda: "codehash-b")
        assert RunCache(path=tmp_path).get("k") is None


class TestDiskRobustness:
    def test_corrupt_file_is_a_miss(self, tmp_path):
        cache = RunCache(path=tmp_path)
        cache.put("k", "result")
        file = next(cache.path.glob("*.pkl"))
        file.write_bytes(b"definitely not a pickle")
        fresh = RunCache(path=tmp_path)
        assert fresh.get("k") is None
        assert fresh.misses == 1

    def test_other_format_versions_are_ignored(self, tmp_path):
        cache = RunCache(path=tmp_path)
        stale = cache.path / f"k.v{CACHE_FORMAT + 1}.pkl"
        stale.write_bytes(pickle.dumps("old result"))
        assert RunCache(path=tmp_path).get("k") is None

    def test_pre_columnar_entries_read_as_clean_misses(self, tmp_path):
        """Entries written before the v2 (columnar records) format bump
        must read as misses: no exception, no stale hit."""
        assert CACHE_FORMAT >= 2
        cache = RunCache(path=tmp_path)
        for old_version in range(1, CACHE_FORMAT):
            old = cache.path / f"k.v{old_version}.pkl"
            old.write_bytes(pickle.dumps("pre-bump result with record list"))
        fresh = RunCache(path=tmp_path)
        assert fresh.get("k") is None
        assert fresh.misses == 1
        # The stale files stay inert on disk (never deleted, never read).
        for old_version in range(1, CACHE_FORMAT):
            assert (cache.path / f"k.v{old_version}.pkl").exists()

    def test_unwritable_location_degrades_to_memory(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        cache = RunCache(path=blocker / "sub")  # mkdir under a file fails
        assert cache.path is None
        cache.put("k", "result")
        assert cache.get("k") == "result"


class TestPersistentConstructor:
    def test_env_var_overrides_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envdir"))
        cache = RunCache.persistent()
        assert cache.path.parent == tmp_path / "envdir"  # fingerprint subdir

    def test_explicit_path_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envdir"))
        cache = RunCache.persistent(tmp_path / "explicit")
        assert cache.path.parent == tmp_path / "explicit"
