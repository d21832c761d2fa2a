"""`repro.obs` — fleet observability: telemetry bus, metrics, exporters.

The zero-cost-when-off instrumentation layer threaded through the
scheduler, round executors, channel kernel, and fault injector.  See
:mod:`repro.obs.telemetry` for the bus and the event taxonomy,
:mod:`repro.obs.metrics` for the aggregation primitives,
:mod:`repro.obs.exporters` for JSONL logs / summary tables, and
:mod:`repro.obs.console` for the live run view.

Hard contract: the bus never draws randomness and never perturbs float
accumulation order — every engine path stays bit-identical with
telemetry on or off (asserted in ``tests/test_obs_telemetry.py``).
"""

from .console import LiveConsole
from .exporters import (
    JsonlWriter,
    read_events,
    render_prometheus,
    summary_table,
)
from .metrics import Counter, Gauge, Histogram, MetricsCollector, RingSeries
from .telemetry import (
    EVENT_TYPES,
    NULL_BUS,
    ArqRederived,
    ClusterRetired,
    DeadlineMissed,
    FaultApplied,
    NullTelemetryBus,
    ParityChosen,
    QuorumCheck,
    RoundCompleted,
    SegmentFused,
    SpanClosed,
    TelemetryBus,
    TelemetryEvent,
    TransmitBatch,
)

__all__ = [
    "TelemetryBus", "NullTelemetryBus", "NULL_BUS", "TelemetryEvent",
    "EVENT_TYPES",
    "RoundCompleted", "SegmentFused", "FaultApplied",
    "ArqRederived", "ParityChosen", "TransmitBatch", "QuorumCheck",
    "ClusterRetired", "DeadlineMissed", "SpanClosed",
    "Counter", "Gauge", "Histogram", "RingSeries", "MetricsCollector",
    "JsonlWriter", "read_events", "render_prometheus", "summary_table",
    "LiveConsole",
]
