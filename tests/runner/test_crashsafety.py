"""Crash- and concurrency-safety of the result-cache directory.

A runner may be killed mid-write, and two runner processes may share one
``--cache-dir``; these tests pin the repairs that make that safe:

* ``ResultCache.put`` publishes through a *unique* temporary name —
  the old fixed ``<key>.tmp`` let two writers interleave ``write`` and
  ``replace`` and publish a torn entry;
* stale temporaries are swept when a cache opens, and garbage entries
  are unlinked on read so the slot repairs itself — as are entries that
  parse but do not decode into a result.
"""

import json
import threading

import pytest

from repro.runner import GridRunner, ResultCache, checkpoint_point


def entry_for(cache, key, value):
    cache.put(key, {"p": key}, {"value": value})


class TestAtomicPut:
    def test_put_then_get_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "a" * 64
        entry_for(cache, key, 1)
        assert cache.get(key) == {"value": 1}

    def test_no_fixed_name_temporary_is_used(self, tmp_path):
        """A crashed writer must never block a later writer of the same
        key: every put creates a fresh uniquely-named temporary."""
        cache = ResultCache(tmp_path)
        key = "b" * 64
        # Plant a file at the old fixed temp name; a put of the same key
        # must neither reuse nor trip over it.
        planted = tmp_path / f"{key}.tmp"
        planted.write_text("stale half-written junk")
        entry_for(cache, key, 2)
        assert cache.get(key) == {"value": 2}
        assert planted.read_text() == "stale half-written junk"

    def test_concurrent_puts_of_one_key_never_tear(self, tmp_path):
        """Hammer one key from several threads while a reader polls:
        every read must see either a miss or one of the complete
        entries — never a torn mixture."""
        cache = ResultCache(tmp_path)
        key = "c" * 64
        payload = {"blob": "x" * 4096}
        stop = threading.Event()
        torn = []

        def writer(value):
            while not stop.is_set():
                cache.put(key, {"p": key}, {"value": value, **payload})

        def reader():
            while not stop.is_set():
                result = cache.get(key)
                if result is None:
                    continue
                if result.get("blob") != payload["blob"] or (
                    result.get("value") not in (1, 2, 3)
                ):
                    torn.append(result)
                    stop.set()

        threads = [threading.Thread(target=writer, args=(v,)) for v in (1, 2, 3)]
        threads.append(threading.Thread(target=reader))
        for thread in threads:
            thread.start()
        stop.wait(timeout=2.0)
        stop.set()
        for thread in threads:
            thread.join()
        assert torn == []
        assert list(tmp_path.glob("*.tmp")) == []

    def test_no_temporaries_survive_a_put(self, tmp_path):
        cache = ResultCache(tmp_path)
        for i in range(10):
            entry_for(cache, f"{i:064d}", i)
        assert list(tmp_path.glob("*.tmp")) == []


class TestSelfRepair:
    def test_stale_temporaries_are_swept_on_open(self, tmp_path):
        (tmp_path / ("d" * 64 + ".abc123.tmp")).write_text("orphan")
        (tmp_path / ("e" * 64 + ".zzz.tmp")).write_text("orphan")
        ResultCache(tmp_path)
        assert list(tmp_path.glob("*.tmp")) == []

    def test_truncated_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "f" * 64
        entry_for(cache, key, 1)
        path = tmp_path / f"{key}.json"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write of old code
        assert cache.get(key) is None
        assert not path.exists()  # repaired: next put recreates it
        entry_for(cache, key, 2)
        assert cache.get(key) == {"value": 2}

    def test_garbage_entry_is_a_miss_and_is_unlinked(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "9" * 64
        (tmp_path / f"{key}.json").write_text("\x00\x00 not json")
        assert cache.get(key) is None
        assert not (tmp_path / f"{key}.json").exists()

    @pytest.mark.parametrize("observability", [False, True])
    def test_an_entry_that_does_not_decode_is_recomputed(
        self, tmp_path, observability
    ):
        """A planted result that parses but does not decode (plain: a
        checkpoint result missing its fields; instrumented: no
        ``comparison`` member) is a miss: the point is recomputed and
        its entry written again."""
        point = checkpoint_point("predictor", num_epochs=4, rollback_depth=1)
        runner = GridRunner(
            jobs=1, cache_dir=tmp_path, observability=observability
        )
        expected = runner.run([point]).results
        (path,) = tmp_path.glob("*.json")
        entry = json.loads(path.read_text())
        entry["result"] = (
            {"metrics": {}, "trace": {}} if observability
            else {"kind": "checkpoint", "app": "predictor"}
        )
        path.write_text(json.dumps(entry))
        rerun = runner.run([point])
        assert rerun.cached_keys == []
        assert rerun.results == expected
        assert runner.run([point]).cached_keys == [point.key]

    def test_non_dict_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "8" * 64
        (tmp_path / f"{key}.json").write_text("[1, 2, 3]")
        assert cache.get(key) is None
