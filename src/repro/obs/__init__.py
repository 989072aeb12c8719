"""``repro.obs``: the fabric-wide telemetry layer.

One stable instrumentation API for every stat the stack produces --
per-plane queue counters from the packet simulator, iteration counts
from the fluid model, LP solve timings, runner wall clocks, and bounded
per-flow/per-queue traces -- replacing the ad-hoc counters each layer
used to expose.

Quick use::

    from repro import obs

    registry = obs.Registry(tracer=obs.Tracer())
    net = PacketNetwork(planes, obs=registry)   # explicit injection
    ...
    registry.metric_sinks.append(obs.JsonlSink("metrics.jsonl"))
    registry.close()

or process-wide (what ``python -m repro <fig> --metrics-out ...`` does)::

    obs.set_registry(obs.Registry(tracer=obs.Tracer()))

Telemetry is **off by default**: the process default is a
:class:`NullRegistry` whose instruments are shared no-ops, so
un-instrumented runs pay (near) nothing.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    NULL_REGISTRY,
    NullRegistry,
    Registry,
    get_registry,
    set_registry,
    use_registry,
)
from repro.obs.sinks import JsonlSink, MemorySink, Sink, read_jsonl
from repro.obs.summary import summarize_files, summarize_rows
from repro.obs.trace import DEFAULT_CAPACITY, TraceEvent, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NULL_REGISTRY",
    "NullRegistry",
    "Registry",
    "get_registry",
    "set_registry",
    "use_registry",
    "JsonlSink",
    "MemorySink",
    "Sink",
    "read_jsonl",
    "summarize_files",
    "summarize_rows",
    "DEFAULT_CAPACITY",
    "TraceEvent",
    "Tracer",
]
