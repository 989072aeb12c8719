"""Tests for the fabric-wide telemetry layer (repro.obs).

Covers the registry's label semantics, histogram percentile agreement
with the experiment-table estimator, sink round-trips, tracer bounds,
the near-zero disabled overhead guarantee, and the acceptance criterion
that exported per-plane counters exactly match the NetworkMonitor merge
-- byte-identically across worker counts.
"""

import json

import time

import pytest

from repro.analysis.stats import summarize
from repro.core.flowspec import FlowSpec
from repro.core.monitoring import NetworkMonitor
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from tests.obs_probe import traced_trial
from repro.exp.runner import TrialSpec, run_trials
from repro.obs import (
    CsvSink,
    JsonlSink,
    MemorySink,
    NullRegistry,
    NullSink,
    Registry,
    Tracer,
    get_registry,
    read_jsonl,
    set_registry,
    summarize_rows,
    use_registry,
)
from repro.sim.network import PacketNetwork
from repro.topology import ParallelTopology, build_jellyfish


def make_pnet(n_planes=2, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s + seed), n_planes
        )
    )


class TestRegistryLabels:
    def test_distinct_labels_are_distinct_series(self):
        reg = Registry()
        reg.counter("drops", plane=0).inc(3)
        reg.counter("drops", plane=1).inc(5)
        assert reg.value("drops", plane=0) == 3
        assert reg.value("drops", plane=1) == 5

    def test_label_order_is_canonical(self):
        reg = Registry()
        reg.counter("x", a=1, b=2).inc()
        reg.counter("x", b=2, a=1).inc()
        assert reg.value("x", a=1, b=2) == 2

    def test_same_name_different_kind_coexist(self):
        reg = Registry()
        reg.counter("n").inc(7)
        reg.gauge("m").set(2)
        kinds = {m.kind for m in reg.metrics()}
        assert kinds == {"counter", "gauge"}

    def test_gauge_set_and_max(self):
        reg = Registry()
        g = reg.gauge("depth")
        g.set(4)
        g.max(2)
        assert g.value == 4
        g.max(9)
        assert g.value == 9

    def test_counter_rejects_negative(self):
        reg = Registry()
        with pytest.raises(ValueError):
            reg.counter("c").inc(-1)

    def test_value_does_not_create_series(self):
        reg = Registry()
        assert reg.value("nothing", default=-1) == -1
        assert list(reg.metrics()) == []

    def test_snapshot_sorted_and_stable(self):
        reg = Registry()
        reg.counter("b").inc()
        reg.counter("a", plane=1).inc()
        reg.counter("a", plane=0).inc()
        names = [(r["name"], r["labels"]) for r in reg.snapshot()]
        assert names == [("a", {"plane": 0}), ("a", {"plane": 1}), ("b", {})]


class TestHistogram:
    def test_percentiles_match_analysis_summarize(self):
        reg = Registry()
        hist = reg.histogram("fct", plane=0)
        values = [0.1 * i for i in range(1, 42)]
        for v in values:
            hist.observe(v)
        expected = summarize(values)
        (row,) = reg.snapshot()
        assert row["count"] == len(values)
        assert row["p50"] == expected.median
        assert row["p90"] == expected.p90
        assert row["p99"] == expected.p99
        assert row["mean"] == expected.mean
        assert row["min"] == expected.minimum
        assert row["max"] == expected.maximum

    def test_wallclock_excluded_from_deterministic_snapshot(self):
        reg = Registry()
        with reg.timer("lp.solve_seconds"):
            pass
        reg.histogram("fct").observe(1.0)
        full = reg.snapshot(include_wallclock=True)
        det = reg.snapshot(include_wallclock=False)
        assert {r["name"] for r in full} == {"lp.solve_seconds", "fct"}
        assert {r["name"] for r in det} == {"fct"}


class TestTracer:
    def test_bounded_ring_drops_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.emit("tick", float(i), i=i)
        events = tracer.events()
        assert len(events) == 4
        assert [e.fields["i"] for e in events] == [6, 7, 8, 9]
        assert tracer.dropped == 6

    def test_as_dict_puts_kind_and_time_first(self):
        tracer = Tracer()
        tracer.emit("queue.drop", 1.5, queue="q", depth=3)
        d = tracer.events()[0].as_dict()
        assert list(d)[:2] == ["kind", "t"]
        assert d == {"kind": "queue.drop", "t": 1.5, "queue": "q", "depth": 3}


class TestSinks:
    def test_jsonl_round_trip_sorted_keys(self, tmp_path):
        path = tmp_path / "m.jsonl"
        sink = JsonlSink(str(path))
        sink.write({"b": 1, "a": {"z": 2, "y": 3}})
        sink.close()
        raw = path.read_text()
        assert raw.index('"a"') < raw.index('"b"')
        assert read_jsonl(str(path)) == [{"b": 1, "a": {"z": 2, "y": 3}}]

    def test_memory_sink_collects(self):
        sink = MemorySink()
        sink.write({"x": 1})
        sink.close()
        assert sink.rows == [{"x": 1}] and sink.closed

    def test_null_sink_discards(self):
        sink = NullSink()
        sink.write({"x": 1})
        sink.close()

    def test_csv_sink_has_header_and_rows(self, tmp_path):
        path = tmp_path / "m.csv"
        reg = Registry(
            tracer=Tracer(), metric_sinks=[CsvSink(str(path))],
            trace_sinks=[],
        )
        reg.counter("c", plane=0).inc(2)
        reg.close()
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("type,name,kind")
        assert any("c" in line for line in lines[1:])

    def test_registry_flush_to_sinks(self):
        metrics, traces = MemorySink(), MemorySink()
        reg = Registry(
            tracer=Tracer(), metric_sinks=[metrics], trace_sinks=[traces]
        )
        reg.counter("n").inc()
        reg.trace("evt", 0.5, a=1)
        reg.flush()
        assert [r["name"] for r in metrics.rows] == ["n"]
        assert traces.rows == [{"type": "trace", "kind": "evt", "t": 0.5, "a": 1}]


class TestDefaultRegistry:
    def test_default_is_disabled_null(self):
        reg = get_registry()
        assert isinstance(reg, NullRegistry)
        assert not reg.enabled
        # Shared no-op instruments: no state, no allocation per series.
        assert reg.counter("x", plane=1) is reg.gauge("y")

    def test_use_registry_restores_previous(self):
        live = Registry()
        with use_registry(live) as reg:
            assert get_registry() is live is reg
        assert isinstance(get_registry(), NullRegistry)

    def test_set_registry_none_restores_null(self):
        previous = set_registry(Registry())
        try:
            assert not isinstance(get_registry(), NullRegistry)
        finally:
            set_registry(None)
        assert isinstance(get_registry(), NullRegistry)
        assert isinstance(previous, NullRegistry)


def _run_probe_network(obs=None):
    pnet = make_pnet()
    net = PacketNetwork(pnet.planes, obs=obs)
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    hosts = pnet.hosts
    for i in range(len(hosts) - 1):
        src, dst = hosts[i], hosts[i + 1]
        net.add_flow(spec=FlowSpec(
            src=src, dst=dst, size=100_000,
            paths=policy.select(src, dst, i),
        ))
    net.run()
    return net


class TestInstrumentedSimulation:
    def test_results_identical_with_and_without_telemetry(self):
        base = _run_probe_network()
        traced = _run_probe_network(obs=Registry(tracer=Tracer()))
        assert [
            (r.flow_id, r.finish, r.retransmits) for r in base.records
        ] == [
            (r.flow_id, r.finish, r.retransmits) for r in traced.records
        ]

    def test_event_loop_counters_published(self):
        reg = Registry()
        net = _run_probe_network(obs=reg)
        assert reg.value("sim.events.processed") > 0
        assert reg.value("sim.events.max_heap_depth") > 0
        assert net.loop.max_heap_depth == reg.value("sim.events.max_heap_depth")

    def test_plane_queue_gauges_match_network_totals(self):
        reg = Registry()
        net = _run_probe_network(obs=reg)
        for plane, totals in net.plane_queue_totals().items():
            for stat, value in totals.items():
                assert reg.value(f"sim.plane.{stat}", plane=plane) == value

    def test_obs_counters_match_network_monitor_exactly(self):
        """Acceptance: per-plane byte counts agree to the last bit."""
        reg = Registry()
        net = _run_probe_network(obs=reg)
        monitor = NetworkMonitor.from_network(net)
        for plane, stats in monitor.stats.items():
            assert reg.value("net.flow.bytes", plane=plane) == stats.bytes_carried
            assert reg.value("net.flows", plane=plane) == stats.flows
            assert reg.samples("net.fct_seconds", plane=plane) == stats.fcts
            assert reg.value("sim.plane.drops", plane=plane) == stats.drops

    def test_monitor_from_registry_equals_from_network(self):
        reg = Registry()
        net = _run_probe_network(obs=reg)
        a = NetworkMonitor.from_network(net)
        b = NetworkMonitor.from_registry(reg, len(net.planes))
        for plane in a.stats:
            assert a.stats[plane].flows == b.stats[plane].flows
            assert a.stats[plane].bytes_carried == b.stats[plane].bytes_carried
            assert a.stats[plane].drops == b.stats[plane].drops
            assert sorted(a.stats[plane].fcts) == sorted(b.stats[plane].fcts)


class TestTracedTrial:
    def test_trace_and_metrics_deterministic_in_process(self):
        a = traced_trial(seed=3)
        b = traced_trial(seed=3)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_monitor_view_matches_exported_metrics(self):
        result = traced_trial(seed=1)
        by_key = {
            (row["name"], row["labels"].get("plane")): row
            for row in result["metrics"]
        }
        for plane, view in result["monitor"].items():
            assert by_key[("net.flow.bytes", plane)]["value"] == view["bytes"]
            assert by_key[("net.flows", plane)]["value"] == view["flows"]
            assert (
                by_key[("sim.plane.drops", plane)]["value"] == view["drops"]
            )

    def test_trace_timestamps_are_simulated_time(self):
        result = traced_trial(seed=0)
        ts = [e["t"] for e in result["trace"]]
        # Simulated seconds for a tiny trial: far below one wall second,
        # and monotonically collected.
        assert ts and max(ts) < 1.0


class TestJobCountDeterminism:
    def test_traced_trial_byte_identical_across_job_counts(
        self, tmp_path, monkeypatch
    ):
        """Exported telemetry (canonical JSON) is byte-identical at any
        PNET_JOBS -- what the JSONL sinks write to disk.  (Raw pickles
        differ in memoization across the process boundary, so the
        comparison is on the serialized form sinks actually produce.)
        """
        blobs = []
        for jobs in (1, 4):
            monkeypatch.setenv(
                "PNET_CACHE_DIR", str(tmp_path / f"cache-jobs{jobs}")
            )
            monkeypatch.setenv("PNET_JOBS", str(jobs))
            specs = [
                TrialSpec(
                    fn="tests.obs_probe:traced_trial",
                    key=("probe", seed),
                    kwargs=dict(seed=seed),
                )
                for seed in range(3)
            ]
            results = run_trials(specs)
            blobs.append(
                json.dumps(
                    {str(k): v for k, v in results.items()}, sort_keys=True
                )
            )
        assert blobs[0] == blobs[1]


class TestNullOverhead:
    def test_disabled_telemetry_is_near_free(self):
        """The disabled default must track a no-registry-at-all run.

        Both configurations run the identical code path (NullRegistry
        instruments are shared no-ops); best-of-N wall clocks guard
        against an accidental hot-path regression.  The threshold is
        deliberately loose -- CI machines jitter -- the point is to fail
        if disabled telemetry ever becomes O(per-packet work).
        """
        def best_of(n, obs):
            best = float("inf")
            for __ in range(n):
                t0 = time.perf_counter()
                _run_probe_network(obs=obs)
                best = min(best, time.perf_counter() - t0)
            return best

        base = best_of(3, obs=None)  # process default: NullRegistry
        null = best_of(3, obs=NullRegistry())
        assert null < base * 1.5 + 0.05


class TestSummarize:
    def test_summarize_rows_renders_all_sections(self):
        reg = Registry(tracer=Tracer())
        reg.counter("net.flows", plane=0).inc(4)
        reg.gauge("depth").set(7)
        reg.histogram("fct").observe(0.25)
        reg.trace("queue.drop", 0.1, queue="q")
        rows = reg.snapshot() + [
            dict({"type": "trace"}, **e.as_dict())
            for e in reg.tracer.events()
        ]
        text = summarize_rows(rows)
        assert "== counters ==" in text
        assert "net.flows" in text and "plane=0" in text
        assert "== gauges ==" in text
        assert "== histograms ==" in text
        assert "== trace events ==" in text and "queue.drop" in text

    def test_summarize_empty(self):
        assert summarize_rows([]) == "no telemetry rows found"
