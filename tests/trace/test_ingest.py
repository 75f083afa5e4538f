"""Ingest: kernel capture and the external-JSONL converter.

Capture must be deterministic (same sizing + seed ⇒ same trace id) and
lossless (what the generators built is exactly what replay reads back);
the JSONL converter must accept the external format and reject, with a
typed error naming ``file:line``, anything the replay adapters could not
interpret.
"""

import json

import pytest

from repro.cli import main
from repro.errors import TraceError
from repro.trace import (
    TraceStore,
    import_jsonl,
    ingest_checkpoint,
    ingest_tls,
    ingest_tm,
)
from repro.trace.records import encode_event


def write_jsonl(path, units, header):
    """Write generated replay units in the external JSONL format.

    ``header(unit)`` is the unit's dict header; its events follow as
    record arrays.
    """
    lines = []
    for unit in units:
        lines.append(json.dumps(header(unit)))
        lines.extend(json.dumps(encode_event(e)) for e in unit.events)
    path.write_text("\n".join(lines) + "\n")


class TestKernelCapture:
    def test_tm_ingest_is_deterministic(self, tmp_path):
        a = ingest_tm(tmp_path / "a", "mc", num_threads=2, txns_per_thread=3)
        b = ingest_tm(tmp_path / "b", "mc", num_threads=2, txns_per_thread=3)
        assert a.trace_id == b.trace_id

    def test_sizing_and_seed_change_the_id(self, tmp_path):
        store = TraceStore(tmp_path)
        base = ingest_tm(store, "mc", num_threads=2, txns_per_thread=3)
        other_seed = ingest_tm(store, "mc", num_threads=2, txns_per_thread=3,
                               seed=7)
        other_size = ingest_tm(store, "mc", num_threads=2, txns_per_thread=4)
        assert len({base.trace_id, other_seed.trace_id,
                    other_size.trace_id}) == 3

    def test_tm_capture_matches_the_generator(self, tmp_path):
        from repro.trace.replay import TraceTmWorkload
        from repro.workloads.kernels import build_tm_workload

        store = TraceStore(tmp_path)
        result = ingest_tm(store, "cb", num_threads=2, txns_per_thread=2,
                           seed=3)
        replayed = TraceTmWorkload(store, result.trace_id).load()
        built = build_tm_workload("cb", num_threads=2, txns_per_thread=2,
                                  seed=3)
        assert [t.thread_id for t in replayed] == [t.thread_id for t in built]
        assert [t.events for t in replayed] == [t.events for t in built]

    def test_tls_capture_matches_the_generator(self, tmp_path):
        from repro.trace.replay import TraceTlsWorkload
        from repro.workloads.tls_spec import build_tls_workload

        store = TraceStore(tmp_path)
        result = ingest_tls(store, "gzip", num_tasks=12, seed=3)
        replayed = TraceTlsWorkload(store, result.trace_id).load()
        built = build_tls_workload("gzip", num_tasks=12, seed=3)
        assert [(t.task_id, t.spawn_cursor, t.events) for t in replayed] == (
            [(t.task_id, t.spawn_cursor, t.events) for t in built]
        )

    def test_checkpoint_capture_matches_the_generator(self, tmp_path):
        from repro.checkpoint.workload import build_checkpoint_workload
        from repro.trace.replay import TraceCheckpointWorkload

        store = TraceStore(tmp_path)
        result = ingest_checkpoint(store, "predictor", num_epochs=8)
        replayed = TraceCheckpointWorkload(store, result.trace_id).load()
        built = build_checkpoint_workload("predictor", num_epochs=8)
        assert [(e.ops, e.mispredicted) for e in replayed] == (
            [(e.ops, e.mispredicted) for e in built]
        )

    def test_default_sizings_keep_their_trace_ids(self, tmp_path):
        """The trace-id preimage is stable: these ids were computed by
        earlier builds and pin byte-identical replays."""
        store = TraceStore(tmp_path)
        assert ingest_tm(store, "mc", txns_per_thread=4).trace_id == (
            "5015bab6a4bf90e1fb96fe919ce6cca1a0b2a7c11e8b0681df57aa1de7d741d5"
        )
        assert ingest_tls(store, "gzip", num_tasks=24).trace_id == (
            "99bca89f7de7d6a4a66f583e03cad45dfd8a879655cedc33ea5a51e9025ea0e3"
        )
        assert ingest_checkpoint(
            store, "predictor", num_epochs=32
        ).trace_id == (
            "01c7dac0829ee4310012e1f7fdc7a483b685aab3e8c13f01aae823a1f6628f9f"
        )

    def test_meta_records_the_capture_parameters(self, tmp_path):
        store = TraceStore(tmp_path)
        result = ingest_tls(store, "crafty", num_tasks=9, seed=5)
        info = store.info(result.trace_id)
        assert info.kind == "tls"
        assert info.label == "crafty"
        assert info.meta == {"app": "crafty", "num_tasks": 9, "seed": 5}


class TestJsonlImport:
    def test_traceio_file_imports_to_the_same_id_as_direct_ingest(
        self, tmp_path
    ):
        from repro.workloads.kernels import build_tm_workload

        traces = build_tm_workload("mc", num_threads=2, txns_per_thread=2,
                                   seed=42)
        path = tmp_path / "mc.jsonl"
        write_jsonl(path, traces,
                    lambda t: {"kind": "thread", "id": t.thread_id})
        store = TraceStore(tmp_path / "store")
        imported = import_jsonl(store, path, "tm")
        direct = ingest_tm(store, "mc", num_threads=2, txns_per_thread=2)
        assert imported.trace_id == direct.trace_id
        assert direct.deduplicated  # same content, imported first

    def test_tls_traceio_file_imports(self, tmp_path):
        from repro.workloads.tls_spec import build_tls_workload

        tasks = build_tls_workload("vpr", num_tasks=6, seed=42)
        path = tmp_path / "vpr.jsonl"
        write_jsonl(path, tasks, lambda t: {
            "kind": "task", "id": t.task_id, "spawn": t.spawn_cursor,
        })
        store = TraceStore(tmp_path / "store")
        imported = import_jsonl(store, path, "tls")
        assert imported.trace_id == ingest_tls(
            store, "vpr", num_tasks=6
        ).trace_id

    def test_checkpoint_epoch_headers_import(self, tmp_path):
        path = tmp_path / "epochs.jsonl"
        lines = [
            json.dumps({"kind": "epoch", "mispredicted": False}),
            json.dumps(["l", 64]),
            json.dumps(["s", 64, 7]),
            json.dumps({"kind": "epoch", "mispredicted": True}),
            json.dumps(["s", 128, 9]),
        ]
        path.write_text("\n".join(lines) + "\n")
        store = TraceStore(tmp_path / "store")
        result = import_jsonl(store, path, "checkpoint")
        assert result.num_streams == 2
        assert result.num_records == 5

    def test_label_defaults_to_the_file_stem(self, tmp_path):
        path = tmp_path / "external-run.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n"
            + json.dumps(["l", 4]) + "\n"
        )
        store = TraceStore(tmp_path / "store")
        result = import_jsonl(store, path, "tm")
        assert store.info(result.trace_id).label == "external-run"

    def test_wrong_header_kind_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "task", "id": 0, "spawn": 0}) + "\n")
        with pytest.raises(TraceError, match="expected a 'thread' header"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_event_before_header_is_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps(["l", 4]) + "\n")
        with pytest.raises(TraceError, match="before any header"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_garbage_lines_are_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n{not json\n"
        )
        with pytest.raises(TraceError, match="bad.jsonl:2"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "tm")

    def test_unknown_kind_is_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        path.write_text("")
        with pytest.raises(TraceError, match="unknown trace kind"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "gpu")

    def test_checkpoint_markers_are_rejected(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "epoch", "mispredicted": False}) + "\n"
            + json.dumps(["b"]) + "\n"
        )
        with pytest.raises(TraceError, match="loads and stores"):
            import_jsonl(TraceStore(tmp_path / "store"), path, "checkpoint")

    def test_failed_import_leaves_no_partial_trace(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            json.dumps({"kind": "thread", "id": 0}) + "\n"
            + json.dumps(["l", 4]) + "\n"
            + "garbage\n"
        )
        store = TraceStore(tmp_path / "store")
        with pytest.raises(TraceError):
            import_jsonl(store, path, "tm")
        assert store.traces() == []
        assert list(store.directory.iterdir()) == []


#: Malformed (and one tolerated) external JSONL inputs: kind, lines (the
#: last one is the bad one), and the expected error text, or ``None``
#: where the import must succeed.
IMPORT_ROWS = {
    "tm-header-without-id": ("tm", ['{"kind": "thread"}'], "lacks id"),
    "tls-header-without-spawn": (
        "tls", ['{"kind": "task", "id": 0}'], "lacks spawn"
    ),
    "checkpoint-header-without-mispredicted": (
        "checkpoint", ['{"kind": "epoch"}'], "lacks mispredicted"
    ),
    "non-integer-thread-id": (
        "tm", ['{"kind": "thread", "id": "x"}'], "non-integer"
    ),
    "scalar-row": ("tm", ['{"kind": "thread", "id": 0}', "5"],
                   "not a non-empty array"),
    "tm-string-address": (
        "tm", ['{"kind": "thread", "id": 0}', '["l", "abc"]'], "non-integer"
    ),
    "checkpoint-string-address": (
        "checkpoint", ['{"kind": "epoch", "mispredicted": false}',
                       '["l", "abc"]'], "non-integer",
    ),
    "unknown-event-tag": ("tm", ['{"kind": "thread", "id": 0}', '["zz"]'],
                          "unknown trace record tag"),
    "tm-zero-cycle-compute": (
        "tm", ['{"kind": "thread", "id": 0}', '["c", 0]'],
        "positive cycle count",
    ),
    "checkpoint-negative-address": (
        "checkpoint", ['{"kind": "epoch", "mispredicted": true}',
                       '["s", -4, 1]'], "negative address",
    ),
    "blank-lines": (
        "tls", ['{"kind": "task", "id": 0, "spawn": 0}', "", '["l", 4]',
                "", ""], None,
    ),
}


@pytest.fixture
def seeded_store(tmp_path):
    """A store already holding one trace, and a snapshot of its files."""
    directory = tmp_path / "store"
    ingest_tls(directory, "gzip", num_tasks=2)
    return directory, sorted(directory.iterdir())


class TestMalformedImports:
    @pytest.mark.parametrize("case", sorted(IMPORT_ROWS))
    def test_import_jsonl_raises_a_typed_error(
        self, case, tmp_path, seeded_store
    ):
        kind, lines, error = IMPORT_ROWS[case]
        directory, before = seeded_store
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        store = TraceStore(directory)
        if error is None:
            result = import_jsonl(store, path, kind)
            assert store.reader(result.trace_id).verify() == result.trace_id
            return
        with pytest.raises(TraceError, match=error) as raised:
            import_jsonl(store, path, kind)
        assert f"in.jsonl:{len(lines)}:" in str(raised.value)
        assert sorted(directory.iterdir()) == before

    @pytest.mark.parametrize("case", sorted(IMPORT_ROWS))
    def test_trace_import_exits_2_with_one_error_line(
        self, case, tmp_path, seeded_store, capsys
    ):
        kind, lines, error = IMPORT_ROWS[case]
        directory, before = seeded_store
        path = tmp_path / "in.jsonl"
        path.write_text("\n".join(lines) + "\n")
        code = main([
            "trace", "import", str(path), "--kind", kind,
            "--store", str(directory),
        ])
        err = capsys.readouterr().err.strip().splitlines()
        if error is None:
            assert code == 0 and err == []
            return
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error:")
        assert error in err[0]
        assert sorted(directory.iterdir()) == before
