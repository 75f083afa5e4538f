"""The content-addressed trace store: identity, streaming, integrity.

The store's contract has three load-bearing clauses:

* the trace id hashes the *logical record stream*, so it pins exactly
  what replay produces and identical content deduplicates;
* each trace is one compressed record file plus one info file, both
  published atomically, so a failed write leaves nothing behind;
* every read re-hashes the decoded stream against the id, so a damaged
  record file raises a typed error naming the trace while the rest of
  the store stays readable.
"""

import json
import zlib

import pytest

from repro.errors import TraceError
from repro.sim.trace import compute, load, tx_begin, tx_end
from repro.sim.trace import store as store_event
from repro.trace import TraceStore
from repro.trace.records import (
    HEADER_TAGS,
    TRACE_KINDS,
    decode_event,
    decode_record,
    encode_event,
    encode_record,
    validate_record,
)


def tm_rows(threads=3, events_per_thread=50):
    rows = []
    for thread in range(threads):
        rows.append(["T", thread])
        for i in range(events_per_thread):
            if i % 3 == 0:
                rows.append(["s", 4 * i, thread + i])
            elif i % 3 == 1:
                rows.append(["l", 4 * i])
            else:
                rows.append(["c", 2])
    return rows


def ingest_rows(store, rows, kind="tm", label="t"):
    writer = store.writer(kind, label=label)
    writer.add_all(rows)
    return writer.finish()


class TestRecords:
    def test_encode_decode_round_trip(self):
        for row in (["T", 3], ["l", 4096], ["s", 8, 99], ["c", 7], ["b"],
                    ["e"], ["K", 1, 2], ["E", 0]):
            assert decode_record(encode_record(row).rstrip(b"\n")) == row

    def test_encoding_is_canonical_compact_json(self):
        assert encode_record(["s", 8, 99]) == b'["s",8,99]\n'

    def test_unknown_tags_and_arity_are_rejected(self):
        with pytest.raises(TraceError):
            validate_record(["x", 1], "tm")
        with pytest.raises(TraceError):
            validate_record(["l", 1, 2], "tm")

    @pytest.mark.parametrize(
        "row", [["l", "4"], ["l", 4.0], ["s", 8, True], ["T", None],
                [["l"], 4], 5, []],
    )
    def test_non_integer_fields_and_non_arrays_are_rejected(self, row):
        with pytest.raises(TraceError):
            validate_record(row, "tm")

    def test_headers_must_match_the_kind(self):
        for kind in TRACE_KINDS:
            for other, tag in HEADER_TAGS.items():
                row = {"T": ["T", 0], "K": ["K", 0, 0], "E": ["E", 0]}[tag]
                if other == kind:
                    validate_record(row, kind)
                else:
                    with pytest.raises(TraceError):
                        validate_record(row, kind)

    def test_checkpoint_traces_hold_only_loads_and_stores(self):
        for row in (["c", 1], ["b"], ["e"]):
            with pytest.raises(TraceError):
                validate_record(row, "checkpoint")

    def test_tls_traces_have_no_transaction_markers(self):
        for row in (["b"], ["e"]):
            with pytest.raises(TraceError):
                validate_record(row, "tls")

    def test_event_codec_round_trips(self):
        events = [load(64), store_event(8, 99), compute(7), tx_begin(),
                  tx_end()]
        rows = [encode_event(event) for event in events]
        assert rows == [["l", 64], ["s", 8, 99], ["c", 7], ["b"], ["e"]]
        assert [decode_event(row) for row in rows] == events


class TestContentAddressing:
    def test_round_trip_is_lossless(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows()
        result = ingest_rows(store, rows)
        assert result.num_records == len(rows)
        assert result.num_streams == 3
        reader = store.reader(result.trace_id)
        assert list(reader.records()) == rows
        assert reader.records_read == len(rows)

    def test_store_holds_two_files_per_trace(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows())
        trace_id = result.trace_id
        assert sorted(path.name for path in tmp_path.iterdir()) == [
            f"{trace_id}.json", f"{trace_id}.z",
        ]
        payload = zlib.decompress((tmp_path / f"{trace_id}.z").read_bytes())
        assert payload == b"".join(encode_record(row) for row in tm_rows())
        info = json.loads((tmp_path / f"{trace_id}.json").read_text())
        assert info["schema"] == 1
        assert info["kind"] == "tm"
        assert info["encoded_bytes"] == len(payload)

    def test_reingesting_same_content_deduplicates(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = tm_rows()
        first = ingest_rows(store, rows)
        second = ingest_rows(store, rows, label="other")
        assert second.trace_id == first.trace_id
        assert not first.deduplicated
        assert second.deduplicated
        assert len(store.traces()) == 1
        assert len(list(tmp_path.iterdir())) == 2

    def test_different_kinds_never_share_an_id(self, tmp_path):
        store = TraceStore(tmp_path)
        rows = [["l", 4], ["s", 8, 1]]
        tm_id = ingest_rows(store, [["T", 0]] + rows).trace_id
        ckpt_id = ingest_rows(store, [["E", 0]] + rows, kind="checkpoint").trace_id
        assert tm_id != ckpt_id

    def test_label_and_meta_do_not_change_the_id(self, tmp_path):
        rows = tm_rows(threads=1, events_per_thread=5)
        a = TraceStore(tmp_path / "a")
        b = TraceStore(tmp_path / "b")
        writer = b.writer("tm", label="zzz", meta={"app": "x"})
        writer.add_all(rows)
        assert ingest_rows(a, rows).trace_id == writer.finish().trace_id

    def test_an_old_layout_store_lists_as_empty(self, tmp_path):
        (tmp_path / "index.sqlite").write_bytes(b"SQLite format 3\0")
        (tmp_path / "chunks").mkdir()
        store = TraceStore(tmp_path)
        assert store.traces() == []
        with pytest.raises(TraceError, match="not in the store"):
            store.reader("f" * 64)


class TestStreamingReads:
    def test_multi_chunk_round_trip(self, tmp_path, monkeypatch):
        """The reader decompresses the record file in chunks of
        ``_READ_BYTES``; records split across chunk boundaries must
        come back whole."""
        store = TraceStore(tmp_path)
        rows = tm_rows(threads=4, events_per_thread=200)
        result = ingest_rows(store, rows)
        for read_bytes in (1, 7, 4096):
            monkeypatch.setattr("repro.trace.store._READ_BYTES", read_bytes)
            reader = store.reader(result.trace_id)
            assert list(reader.records()) == rows
            assert reader.records_read == len(rows)

    def test_obs_counters_track_the_replay(self, tmp_path):
        from repro.obs.metrics import MetricsRegistry

        store = TraceStore(tmp_path)
        rows = tm_rows(threads=2, events_per_thread=100)
        result = ingest_rows(store, rows)
        metrics = MetricsRegistry()
        list(store.reader(result.trace_id, metrics=metrics).records())
        snapshot = metrics.snapshot()["counters"]
        assert snapshot["trace.bytes_streamed"] == result.encoded_bytes
        assert snapshot["trace.records_replayed"] == len(rows)


class TestIntegrity:
    def test_verify_rehashes_to_the_trace_id(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows())
        assert store.reader(result.trace_id).verify() == result.trace_id

    def test_corrupt_chunk_is_detected(self, tmp_path):
        """Well-formed records that are not the ingested ones fail the
        id check at the end of the stream."""
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows())
        store.record_path(result.trace_id).write_bytes(
            zlib.compress(b'["T",0]\n["l",1]\n')
        )
        with pytest.raises(TraceError, match="does not hash to the trace id"):
            list(store.reader(result.trace_id).records())

    def test_missing_chunk_is_reported(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows())
        store.record_path(result.trace_id).unlink()
        with pytest.raises(TraceError, match="missing"):
            list(store.reader(result.trace_id).records())

    def test_schema_mismatch_refuses_to_open(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_rows(store, tm_rows())
        healthy = ingest_rows(store, tm_rows(threads=1), label="healthy")
        path = store.info_path(result.trace_id)
        info = json.loads(path.read_text())
        info["schema"] = 999
        path.write_text(json.dumps(info))
        with pytest.raises(TraceError, match=f"{result.trace_id}.*schema"):
            store.reader(result.trace_id)
        assert store.reader(healthy.trace_id).verify() == healthy.trace_id


class TestWriterGuards:
    def test_empty_traces_are_refused(self, tmp_path):
        writer = TraceStore(tmp_path).writer("tm")
        with pytest.raises(TraceError, match="empty"):
            writer.finish()
        assert list(tmp_path.iterdir()) == []

    def test_events_before_any_header_are_refused(self, tmp_path):
        writer = TraceStore(tmp_path).writer("tm")
        with pytest.raises(TraceError, match="before any header"):
            writer.add(["l", 4])
        writer.abort()

    def test_unknown_kind_is_refused(self, tmp_path):
        with pytest.raises(TraceError, match="unknown trace kind"):
            TraceStore(tmp_path).writer("gpu")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_trace_id_raises(self, tmp_path):
        with pytest.raises(TraceError, match="not in the store"):
            TraceStore(tmp_path).info("f" * 64)

    def test_ids_that_are_not_hashes_are_never_looked_up(self, tmp_path):
        store = TraceStore(tmp_path / "store")
        (tmp_path / "outside.json").write_text("{}")
        assert not store.has("../outside")
        with pytest.raises(TraceError, match="not in the store"):
            store.info("../outside")

    def test_abort_leaves_no_staging_directories(self, tmp_path):
        store = TraceStore(tmp_path)
        writer = store.writer("tm")
        writer.add(["T", 0])
        for i in range(50):
            writer.add(["l", 4 * i])
        writer.abort()
        assert list(tmp_path.iterdir()) == []


class TestVerifyCorruption:
    """A damaged record file raises a TraceError naming the trace, and
    damage to one trace never makes the rest of the store unreadable."""

    def _store_with_two_traces(self, tmp_path):
        store = TraceStore(tmp_path)
        victim = ingest_rows(store, tm_rows())
        healthy = ingest_rows(
            store, tm_rows(threads=2, events_per_thread=7), label="healthy"
        )
        return store, victim, healthy

    def _assert_rest_of_store_readable(self, store, healthy):
        assert store.reader(healthy.trace_id).verify() == healthy.trace_id
        assert {info.trace_id for info in store.traces()} >= {
            healthy.trace_id
        }

    def test_flipped_byte_names_the_chunk(self, tmp_path):
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        path = store.record_path(victim.trace_id)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(TraceError, match=path.name):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_truncated_chunk_names_the_chunk(self, tmp_path):
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        path = store.record_path(victim.trace_id)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(TraceError, match=path.name):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_missing_checksum_is_reported(self, tmp_path):
        """Cutting only zlib's trailing checksum leaves every record
        intact and hashing to the id; the file is still truncated."""
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        path = store.record_path(victim.trace_id)
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(TraceError, match="truncated"):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)

    def test_malformed_record_fails_before_replay_uses_it(self, tmp_path):
        """A well-formed compressed file holding a record the adapters
        cannot interpret raises a TraceError, never an IndexError from
        the replay adapter."""
        from repro.trace import load_trace_workload

        store, victim, healthy = self._store_with_two_traces(tmp_path)
        path = store.record_path(victim.trace_id)
        path.write_bytes(zlib.compress(b'["T"]\n'))
        with pytest.raises(TraceError, match=path.name):
            load_trace_workload("tm", store, victim.trace_id)
        self._assert_rest_of_store_readable(store, healthy)

    def test_trailing_bytes_are_reported(self, tmp_path):
        store, victim, healthy = self._store_with_two_traces(tmp_path)
        path = store.record_path(victim.trace_id)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(TraceError, match="trailing bytes"):
            store.reader(victim.trace_id).verify()
        self._assert_rest_of_store_readable(store, healthy)
