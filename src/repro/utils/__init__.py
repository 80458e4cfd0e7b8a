"""Shared utilities: logging, seeded RNG, profiling, telemetry."""

from repro.utils.clock import Clock, FakeClock, SystemClock
from repro.utils.contracts import (
    CONTRACTS,
    ContractChecker,
    ContractViolation,
    configure as configure_contracts,
)
from repro.utils.logging import get_logger
from repro.utils.metrics import (
    NULL,
    JsonlSink,
    MemorySink,
    MetricsError,
    MetricsRegistry,
    MetricsReport,
    NullMetrics,
    validate_event,
    validate_stream,
)
from repro.utils.profile import StageProfiler, StageStats
from repro.utils.rng import make_rng

__all__ = [
    "CONTRACTS",
    "ContractChecker",
    "ContractViolation",
    "configure_contracts",
    "get_logger",
    "make_rng",
    "Clock",
    "FakeClock",
    "SystemClock",
    "StageProfiler",
    "StageStats",
    "NULL",
    "NullMetrics",
    "MetricsError",
    "MetricsRegistry",
    "MetricsReport",
    "JsonlSink",
    "MemorySink",
    "validate_event",
    "validate_stream",
]
