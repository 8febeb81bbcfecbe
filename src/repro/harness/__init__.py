"""Experiment harness: tools, campaigns, statistics and report rendering."""

from importlib import import_module

from repro.harness.campaign import Campaign, CampaignConfig, CampaignResult, campaign_header
from repro.harness.telemetry import (
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
from repro.harness.parallel import ParallelCampaign, register_tool
from repro.harness.tools import (
    BugSearchResult,
    GenMcTool,
    PeriodTool,
    PerExecutionPolicyTool,
    RffTool,
    TestingTool,
    muzz_tool,
    paper_tools,
    pct_tool,
    pos_tool,
    qlearning_tool,
    random_tool,
)

#: Re-exports resolved on first access (PEP 562), by defining submodule;
#: ``import repro.harness`` loads none of these four modules.
_LAZY_SUBMODULES = {
    "persist": (
        "crash_from_dict",
        "crash_to_dict",
        "load_crash",
        "load_json",
        "result_from_dict",
        "result_to_dict",
        "save_crashes",
        "save_json",
        "schedule_from_dict",
        "schedule_to_dict",
        "trace_from_dict",
        "trace_to_dict",
    ),
    "reporting": (
        "APPENDIX_B_ORDER",
        "RfDistribution",
        "appendix_b_table",
        "figure4_ascii",
        "figure4_series",
        "figure5_ascii",
        "rf_distribution_pos",
        "rf_distribution_rff",
        "sanitizer_summary",
        "significance_summary",
        "store_summary",
        "throughput_summary",
    ),
    "stats": (
        "LogRankResult",
        "SummaryCell",
        "logrank",
        "logrank_direction",
        "mann_whitney_u",
        "summarize",
    ),
    "store": (
        "CorpusStore",
        "StoreError",
        "StoreInspection",
        "StoreLockedError",
        "StoreMismatchError",
    ),
}
_LAZY = {name: module for module, names in _LAZY_SUBMODULES.items() for name in names}


def __getattr__(name: str):
    if name in _LAZY_SUBMODULES:
        # Importing a submodule binds it as an attribute of this package.
        return import_module(f"{__name__}.{name}")
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{module}"), name)
    return value


__all__ = [
    "APPENDIX_B_ORDER",
    "BugSearchResult",
    "Campaign",
    "CampaignConfig",
    "CampaignResult",
    "CorpusStore",
    "Counters",
    "GLOBAL_COUNTERS",
    "JsonlSink",
    "MultiSink",
    "ParallelCampaign",
    "SinkLockedError",
    "StoreError",
    "StoreInspection",
    "StoreLockedError",
    "StoreMismatchError",
    "TelemetryAggregator",
    "TelemetrySink",
    "GenMcTool",
    "LogRankResult",
    "PerExecutionPolicyTool",
    "PeriodTool",
    "RfDistribution",
    "RffTool",
    "SummaryCell",
    "TestingTool",
    "appendix_b_table",
    "campaign_header",
    "crash_from_dict",
    "crash_to_dict",
    "figure4_ascii",
    "figure4_series",
    "figure5_ascii",
    "load_crash",
    "load_json",
    "logrank",
    "logrank_direction",
    "mann_whitney_u",
    "muzz_tool",
    "paper_tools",
    "register_tool",
    "result_from_dict",
    "result_to_dict",
    "save_crashes",
    "save_json",
    "schedule_from_dict",
    "schedule_to_dict",
    "trace_from_dict",
    "trace_to_dict",
    "pct_tool",
    "pos_tool",
    "qlearning_tool",
    "random_tool",
    "rf_distribution_pos",
    "rf_distribution_rff",
    "sanitizer_summary",
    "significance_summary",
    "store_summary",
    "summarize",
    "throughput_summary",
    "validate_jsonl",
    "validate_record",
]
