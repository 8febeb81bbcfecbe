"""Crash-safe corpus store: WAL segments, checksums, compaction, locking.

The acceptance bar: a campaign can be SIGKILLed at any instant and resume
through the store bit-identically — so every durability mechanism (torn-tail
repair, checksum-verified reads, atomic compaction, fsync barriers, advisory
locks) gets pinned here in isolation before the chaos suite composes them.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.harness import store as store_module
from repro.harness.store import (
    MANIFEST_NAME,
    CorpusStore,
    StoreError,
    StoreLockedError,
    StoreMismatchError,
)
from repro.harness.tools import BugSearchResult


def split_segments(store_dir, sizes):
    """Lay a one-segment store out as consecutive segments of ``sizes``
    records, named in order by the manifest, as segment rolling left them."""
    manifest_path = store_dir / MANIFEST_NAME
    manifest = json.loads(manifest_path.read_text())
    [name] = manifest["segments"]
    lines = (store_dir / name).read_text().splitlines(keepends=True)
    assert sum(sizes) == len(lines)
    (store_dir / name).unlink()
    manifest["segments"] = [f"segment-{index:06d}.jsonl" for index in range(len(sizes))]
    for segment, size in zip(manifest["segments"], sizes):
        (store_dir / segment).write_text("".join(lines[:size]))
        lines = lines[size:]
    manifest_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return [store_dir / segment for segment in manifest["segments"]]


def result(tool="RFF", program="CS/account", trial=0, found=True, **kw):
    return BugSearchResult(
        tool=tool,
        program=program,
        trial=trial,
        found=found,
        schedules_to_bug=7 if found else None,
        executions=42,
        outcome="assert" if found else None,
        **kw,
    )


class TestRoundTrip:
    def test_record_and_reopen(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.begin_campaign({"campaign": 1})
            store.record_result(result(trial=0))
            store.record_result(result(trial=1, found=False))
        with CorpusStore(tmp_path / "store") as reopened:
            completed = reopened.completed()
        assert set(completed) == {("RFF", "CS/account", 0), ("RFF", "CS/account", 1)}
        assert completed[("RFF", "CS/account", 0)] == result(trial=0)
        assert completed[("RFF", "CS/account", 1)] == result(trial=1, found=False)

    def test_first_record_wins_dedup(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(found=True))
            store.record_result(result(found=False))  # duplicate key
            assert store.completed()[("RFF", "CS/account", 0)].found

    def test_readonly_refuses_writes(self, tmp_path):
        CorpusStore(tmp_path / "store").close()
        with CorpusStore(tmp_path / "store", readonly=True) as store:
            with pytest.raises(StoreError, match="readonly"):
                store.record_result(result())

    def test_readonly_requires_existing_store(self, tmp_path):
        with pytest.raises(StoreError, match="not a corpus store"):
            CorpusStore(tmp_path / "nope", readonly=True)


class TestHeader:
    def test_header_stamped_once_and_validated(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.begin_campaign({"trials": 2})
        with CorpusStore(tmp_path / "store") as store:
            store.begin_campaign({"trials": 2})  # identical resume: fine
            with pytest.raises(StoreMismatchError, match="different campaign"):
                store.begin_campaign({"trials": 3})


class TestTornTailRecovery:
    def test_torn_tail_truncated_on_reopen(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(trial=0))
            segment = store.segments[-1]
        clean_size = segment.stat().st_size
        torn = '{"type": "cell", "resu'
        with segment.open("a") as handle:
            handle.write(torn)  # the torn half-line
        with CorpusStore(tmp_path / "store") as store:
            assert store.recovered_bytes == len(torn)
            assert segment.stat().st_size == clean_size
            assert set(store.completed()) == {("RFF", "CS/account", 0)}
            # Appends after repair extend the valid prefix, not the tear.
            store.record_result(result(trial=1))
            assert len(store.completed()) == 2

    def test_record_without_its_newline_is_torn(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(trial=0))
            store.record_result(result(trial=1))
            segment = store.segments[-1]
        unterminated = segment.read_bytes()[:-1]  # the newline never reached the disk
        segment.write_bytes(unterminated)
        with CorpusStore(tmp_path / "store") as store:
            assert store.recovered_bytes == len(unterminated) - unterminated.index(b"\n") - 1
            assert set(store.completed()) == {("RFF", "CS/account", 0)}
            store.record_result(result(trial=2))  # fsynced: it admits a bug
            store.record_result(result(trial=3))
        with CorpusStore(tmp_path / "store") as store:
            assert store.recovered_bytes == 0
            assert sorted(trial for _, _, trial in store.completed()) == [0, 2, 3]

    def test_readonly_open_skips_torn_tail_in_place(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(trial=0))
            segment = store.segments[-1]
        with segment.open("a") as handle:
            handle.write('{"type": "cell", "resu')
        torn_size = segment.stat().st_size
        with CorpusStore(tmp_path / "store", readonly=True) as store:
            assert set(store.completed()) == {("RFF", "CS/account", 0)}
            assert store.inspect().records == 1
            assert store.recovered_bytes == 0
        assert segment.stat().st_size == torn_size

    def test_unparseable_line_before_a_record_raises(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(trial=0))
            store.record_result(result(trial=1))
            segment = store.segments[-1]
        first, second = segment.read_text().splitlines(keepends=True)
        segment.write_text(first + '{"type": "cell", "resu\n' + second)
        for readonly in (True, False):
            with pytest.raises(StoreError, match=r"segment-000000.jsonl:2: torn line mid-file"):
                CorpusStore(tmp_path / "store", readonly=readonly)


class TestChecksums:
    def test_corrupt_record_skipped_not_fatal(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result(trial=0))
            store.record_result(result(trial=1))
            segment = store.segments[-1]
        lines = segment.read_text().splitlines()
        lines[0] = lines[0].replace('"found": true', '"found": false')  # bit-rot
        segment.write_text("\n".join(lines) + "\n")
        with CorpusStore(tmp_path / "store") as store:
            inspection = store.inspect()
            assert inspection.corrupt_records == 1
            # The corrupt cell simply looks incomplete: it re-runs on resume.
            assert set(store.completed()) == {("RFF", "CS/account", 1)}
            with pytest.raises(StoreError, match="checksum"):
                store.verify()

    def test_bug_admission_fsyncs(self, tmp_path, monkeypatch):
        fsyncs = []
        real_fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: (fsyncs.append(fd), real_fsync(fd)))
        with CorpusStore(tmp_path / "store") as store:
            baseline = len(fsyncs)
            store.record_result(result(found=False))
            assert len(fsyncs) == baseline  # flushed, not fsynced
            store.record_result(result(trial=1, found=True))
            assert len(fsyncs) == baseline + 1  # the bug-admission barrier


class TestSegmentsAndCompaction:
    def test_segments_read_in_order_and_append_to_the_last(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            for trial in range(4):
                store.record_result(result(trial=trial))
            store.record_result(result(trial=0, found=False))  # late duplicate
        segments = split_segments(tmp_path / "store", [2, 2, 1])
        with CorpusStore(tmp_path / "store") as store:
            completed = store.completed()
            assert list(completed) == [("RFF", "CS/account", trial) for trial in range(4)]
            assert completed[("RFF", "CS/account", 0)].found  # the earlier segment won
            sizes = [segment.stat().st_size for segment in segments]
            store.record_result(result(trial=4))
            assert [segment.stat().st_size for segment in segments[:2]] == sizes[:2]
            assert segments[2].stat().st_size > sizes[2]
        with CorpusStore(tmp_path / "store") as store:
            assert len(store.completed()) == 5
            assert store.compact()["segments_before"] == 3
            assert len(store.segments) == 1
            assert len(store.completed()) == 5

    def test_compaction_dedups_and_drops_segments(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            for trial in range(4):
                store.record_result(result(trial=trial))
            store.record_result(result(trial=0, found=False))  # late duplicate
        split_segments(tmp_path / "store", [2, 2, 1])
        with CorpusStore(tmp_path / "store") as store:
            stats = store.compact()
            assert stats == {
                "segments_before": 3,
                "segments_after": 1,
                "records_before": 5,
                "records_after": 4,
            }
            assert store.completed()[("RFF", "CS/account", 0)].found  # first won
            assert len(store.completed()) == 4
            store.record_result(result(trial=9))  # still appendable after
        with CorpusStore(tmp_path / "store") as store:
            assert len(store.completed()) == 5
            assert store.inspect().compactions == 1

    def test_each_segment_read_once_per_open(self, tmp_path, monkeypatch):
        with CorpusStore(tmp_path / "store") as store:
            for trial in range(3):
                store.record_result(result(trial=trial))
                store.record_slice(0, result(trial=trial))
        segments = split_segments(tmp_path / "store", [2, 2, 2])
        reads = []
        real_read = store_module._read_segment
        monkeypatch.setattr(
            store_module,
            "_read_segment",
            lambda path, repair, visit: (reads.append(path), real_read(path, repair, visit))[1],
        )
        with CorpusStore(tmp_path / "store") as store:
            assert len(store.completed()) == 3
            assert len(store.completed_slices()) == 3
            store.record_result(result(trial=3))
            inspection = store.inspect()
        assert (inspection.records, inspection.cells, inspection.slices) == (7, 4, 3)
        assert reads == segments

    def test_orphan_segments_swept(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result())
        # Garbage from a hypothetical interrupted compaction.
        (tmp_path / "store" / "segment-000099.jsonl").write_text('{"junk": 1}\n')
        (tmp_path / "store" / "segment-000100.jsonl.tmp").write_text("partial")
        with CorpusStore(tmp_path / "store") as store:
            assert len(store.completed()) == 1
        assert not (tmp_path / "store" / "segment-000099.jsonl").exists()
        assert not (tmp_path / "store" / "segment-000100.jsonl.tmp").exists()

    def test_manifest_is_authoritative(self, tmp_path):
        with CorpusStore(tmp_path / "store") as store:
            store.record_result(result())
        manifest = json.loads((tmp_path / "store" / MANIFEST_NAME).read_text())
        assert manifest["store_version"] == 1
        assert manifest["segments"] == ["segment-000000.jsonl"]


class TestLocking:
    def test_second_writer_fails_fast(self, tmp_path):
        with CorpusStore(tmp_path / "store"):
            with pytest.raises(StoreLockedError, match="another campaign"):
                CorpusStore(tmp_path / "store")

    def test_reader_excluded_while_writer_active(self, tmp_path):
        with CorpusStore(tmp_path / "store"):
            with pytest.raises(StoreLockedError):
                CorpusStore(tmp_path / "store", readonly=True)

    def test_sequential_reuse_is_fine(self, tmp_path):
        CorpusStore(tmp_path / "store").close()
        CorpusStore(tmp_path / "store").close()
        CorpusStore(tmp_path / "store", readonly=True).close()
