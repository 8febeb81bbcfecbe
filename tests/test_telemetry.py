"""Telemetry layer: golden event schema, counters, sinks, aggregation.

The acceptance bar for campaign observability: the JSONL emitted by a real
(smoke-sized) parallel campaign contains per-cell timing, schedules/sec and
worker lifecycle events, and every record validates against the golden
schema in :data:`repro.harness.telemetry.EVENT_SCHEMA`.
"""

from __future__ import annotations

import json

import pytest

from repro import bench
from repro.core.fuzzer import RffFuzzer
from repro.harness.campaign import CampaignConfig
from repro.harness.parallel import ParallelCampaign
from repro.harness.reporting import throughput_summary
from repro.harness.telemetry import (
    EVENT_SCHEMA,
    GLOBAL_COUNTERS,
    Counters,
    JsonlSink,
    MultiSink,
    SinkLockedError,
    TelemetryAggregator,
    TelemetrySink,
    validate_jsonl,
    validate_record,
)
from repro.runtime.executor import Executor
from repro.schedulers.random_walk import RandomWalkPolicy


# ----------------------------------------------------------------------
# Golden schema over a real campaign (acceptance criterion)
# ----------------------------------------------------------------------
class TestGoldenSchema:
    @pytest.fixture(scope="class")
    def smoke_records(self, tmp_path_factory):
        """One smoke campaign's JSONL, parsed and schema-validated."""
        path = tmp_path_factory.mktemp("telemetry") / "campaign.jsonl"
        config = CampaignConfig(trials=2, budget=100, base_seed=3)
        with JsonlSink(path) as sink:
            ParallelCampaign(config, processes=2, telemetry=sink).run(
                ["RFF", "POS"], ["CS/account"]
            )
        return validate_jsonl(path)

    def test_every_record_validates(self, smoke_records):
        assert smoke_records  # validate_jsonl raised on any bad record

    def test_campaign_lifecycle_events(self, smoke_records):
        events = [r["event"] for r in smoke_records]
        assert events[0] == "campaign_start"
        assert events[-1] == "campaign_end"
        assert "cell_start" in events and "cell_end" in events

    def test_per_cell_timing_and_throughput(self, smoke_records):
        ends = [r for r in smoke_records if r["event"] == "cell_end"]
        assert len(ends) == 4  # 2 tools x 1 program x 2 trials
        for record in ends:
            assert record["wall_time"] > 0
            assert record["schedules_per_sec"] > 0
            assert record["executions"] > 0
            assert record["steps"] > 0

    def test_worker_lifecycle_events(self, smoke_records):
        """Every pool worker that started a slice exits exactly once, cleanly."""
        workers = {r["pid"] for r in smoke_records if r["event"] == "cell_start"}
        exits = [r for r in smoke_records if r["event"] == "worker_exit"]
        assert workers and all(isinstance(pid, int) for pid in workers)
        assert sorted(r["pid"] for r in exits) == sorted(workers)
        assert all(r["kind"] == "ok" and r["exitcode"] == 0 for r in exits)

    def test_records_are_plain_json(self, smoke_records):
        for record in smoke_records:
            json.dumps(record)  # round-trippable, no exotic types


class TestValidateRecord:
    def _record(self, **overrides):
        record = {
            "event": "pool_degraded",
            "ts": 12.5,
            "schema": 1,
            "reason": "testing",
        }
        record.update(overrides)
        return record

    def test_accepts_valid_record(self):
        validate_record(self._record())

    def test_rejects_unknown_event(self):
        with pytest.raises(ValueError, match="unknown telemetry event"):
            validate_record(self._record(event="made_up"))

    def test_rejects_missing_payload_field(self):
        record = self._record()
        del record["reason"]
        with pytest.raises(ValueError, match="missing fields"):
            validate_record(record)

    def test_rejects_missing_common_field(self):
        record = self._record()
        del record["ts"]
        with pytest.raises(ValueError, match="common fields"):
            validate_record(record)

    def test_rejects_non_numeric_timestamp(self):
        with pytest.raises(ValueError, match="numeric"):
            validate_record(self._record(ts="yesterday"))

    def test_extra_fields_allowed(self):
        validate_record(self._record(extra="fine"))

    @pytest.mark.parametrize(
        ("event", "payload"),
        [
            ("heartbeat", {"pid": 7, "tool": "RFF", "program": "CS/account", "trial": 0, "seq": 3}),
            (
                "lease_reassign",
                {"tool": "RFF", "program": "CS/account", "trial": 0, "attempt": 1, "kind": "lease", "delay": 0.1},
            ),
            (
                "store_compact",
                {"path": "/tmp/store", "segments_before": 3, "segments_after": 1, "records_before": 5, "records_after": 4},
            ),
            (
                "worker_recycle",
                {"pid": 7, "exitcode": 17, "kind": "crash", "unfinished": 2},
            ),
        ],
    )
    def test_accepts_supervisor_and_store_events(self, event, payload):
        validate_record({"event": event, "ts": 1.0, "schema": 1, **payload})

    @pytest.mark.parametrize("event", ["heartbeat", "lease_reassign", "store_compact"])
    def test_rejects_bare_supervisor_and_store_events(self, event):
        with pytest.raises(ValueError, match="missing fields"):
            validate_record({"event": event, "ts": 1.0, "schema": 1})

    def test_schema_covers_all_engine_events(self):
        assert set(EVENT_SCHEMA) == {
            "campaign_start",
            "cell_start",
            "cell_end",
            "cell_retry",
            "cell_error",
            "worker_start",
            "worker_exit",
            "worker_recycle",
            "batch_dispatch",
            "pool_degraded",
            "sanitizer_report",
            "checkpoint",
            "campaign_end",
            "gen_corpus",
            "gen_eval_end",
            "alloc_round",
            "alloc_estimate",
            "heartbeat",
            "lease_reassign",
            "store_compact",
        }


# ----------------------------------------------------------------------
# Always-on counters and their wiring
# ----------------------------------------------------------------------
class TestCounters:
    def test_snapshot_delta(self):
        counters = Counters(executions=3, steps=100, crashes=1, corpus_adds=2)
        snap = counters.snapshot()
        counters.executions += 2
        counters.steps += 50
        delta = counters.delta(snap)
        assert delta == Counters(executions=2, steps=50, crashes=0, corpus_adds=0)
        assert snap == Counters(executions=3, steps=100, crashes=1, corpus_adds=2)

    def test_reset_and_as_dict(self):
        counters = Counters(executions=1, steps=2, crashes=3, corpus_adds=4)
        assert counters.as_dict() == {
            "executions": 1,
            "steps": 2,
            "crashes": 3,
            "corpus_adds": 4,
            "sanitizer_reports": 0,
            "timeouts": 0,
            "livelocks": 0,
            "replays": 0,
            "flaky_quarantined": 0,
        }
        counters.reset()
        assert counters == Counters()

    def test_executor_increments_global_counters(self):
        program = bench.get("CS/account")
        before = GLOBAL_COUNTERS.snapshot()
        Executor(program, RandomWalkPolicy(seed=1)).run()
        delta = GLOBAL_COUNTERS.delta(before)
        assert delta.executions == 1
        assert delta.steps > 0

    def test_fuzzer_increments_global_counters(self):
        program = bench.get("CS/account")
        before = GLOBAL_COUNTERS.snapshot()
        report = RffFuzzer(program, seed=5).run(150)
        delta = GLOBAL_COUNTERS.delta(before)
        assert delta.executions == report.executions
        assert delta.steps > 0
        assert delta.crashes == len(report.crashes)
        assert delta.corpus_adds > 0  # the seed schedule alone admits one


# ----------------------------------------------------------------------
# Sinks
# ----------------------------------------------------------------------
class TestSinks:
    def test_base_sink_is_noop_context_manager(self):
        with TelemetrySink() as sink:
            sink.emit("not_even_validated", nonsense=True)

    def test_jsonl_sink_appends_and_flushes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        sink = JsonlSink(path, clock=lambda: 1.0)
        sink.emit("pool_degraded", reason="one")
        # flushed per record: readable before close
        assert len(validate_jsonl(path)) == 1
        sink.emit("pool_degraded", reason="two")
        sink.close()
        # append-only across reopen
        with JsonlSink(path, clock=lambda: 2.0) as reopened:
            reopened.emit("pool_degraded", reason="three")
        records = validate_jsonl(path)
        assert [r["reason"] for r in records] == ["one", "two", "three"]
        assert records[-1]["ts"] == 2.0

    def test_jsonl_sink_rejects_invalid_emit(self, tmp_path):
        with JsonlSink(tmp_path / "events.jsonl") as sink:
            with pytest.raises(ValueError):
                sink.emit("no_such_event")

    def test_jsonl_sink_double_open_fails_fast(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with JsonlSink(path):
            with pytest.raises(SinkLockedError, match="another campaign"):
                JsonlSink(path)
        # Released on close: a later campaign may append.
        JsonlSink(path).close()

    def test_validate_jsonl_rejects_corrupt_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"event": "pool_degraded", "ts": 1, "schema": 1, "reason": "x"}\n{oops\n')
        with pytest.raises(ValueError, match="invalid JSON"):
            validate_jsonl(path)

    def test_multi_sink_fans_out(self, tmp_path):
        aggregator = TelemetryAggregator(clock=lambda: 0.0)
        path = tmp_path / "multi.jsonl"
        multi = MultiSink([aggregator, JsonlSink(path, clock=lambda: 0.0)])
        multi.emit("pool_degraded", reason="shared")
        multi.close()
        assert len(aggregator.records) == 1
        assert len(validate_jsonl(path)) == 1


# ----------------------------------------------------------------------
# Aggregation and the throughput report
# ----------------------------------------------------------------------
def _synthetic_aggregator() -> TelemetryAggregator:
    aggregator = TelemetryAggregator(clock=lambda: 0.0)
    for trial, wall in enumerate([2.0, 1.0]):
        aggregator.emit(
            "cell_end",
            tool="RFF",
            program="CS/account",
            trial=trial,
            attempt=1,
            wall_time=wall,
            executions=100,
            schedules_per_sec=100 / wall,
            found=True,
            steps=5000,
            crashes=1,
            corpus_adds=7,
        )
    aggregator.emit("cell_retry", tool="RFF", program="CS/account", trial=1, attempt=1, kind="crash")
    aggregator.emit("worker_exit", pid=1, exitcode=17, kind="crash")
    aggregator.emit("worker_exit", pid=2, exitcode=0, kind="ok")
    aggregator.emit(
        "cell_error",
        tool="POS",
        program="CS/account",
        trial=0,
        attempts=3,
        kind="timeout",
        detail="cell exceeded 1s timeout",
    )
    return aggregator


class TestAggregator:
    def test_summary_math(self):
        aggregator = _synthetic_aggregator()
        summary = aggregator.summary()
        assert summary["cells"] == 2
        assert summary["failed_cells"] == 1
        assert summary["retries"] == 1
        assert summary["worker_restarts"] == 1
        assert summary["executions"] == 200
        assert summary["steps"] == 10000
        # no campaign_end yet: wall time falls back to the sum of cell walls
        assert summary["wall_time"] == pytest.approx(3.0)
        assert summary["schedules_per_sec"] == pytest.approx(200 / 3.0)

    def test_campaign_end_overrides_wall_time(self):
        aggregator = _synthetic_aggregator()
        aggregator.emit(
            "campaign_end",
            wall_time=1.5,
            cells=2,
            failed_cells=1,
            retries=1,
            executions=200,
            schedules_per_sec=200 / 1.5,
        )
        assert aggregator.total_wall_time == 1.5

    def test_slowest_cells_ordering(self):
        aggregator = _synthetic_aggregator()
        slowest = aggregator.slowest_cells(1)
        assert slowest == [(("RFF", "CS/account", 0), 2.0)]

    def test_throughput_summary_rendering(self):
        text = throughput_summary(_synthetic_aggregator())
        assert "Campaign throughput" in text
        assert "2 completed, 1 failed, 1 retried" in text
        assert "worker restarts:  1" in text
        assert "slowest cells" in text and "trial 0 (2.00s)" in text
