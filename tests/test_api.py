"""Tests for the stable facade (repro.api) and the FlowSpec redesign.

The facade is the supported entry point for external users; these tests
pin its surface: the kind table behind ``build_network`` / ``run_trial``
(packet, fluid, hybrid, and engine subclasses built directly), the
documented :class:`~repro.api.TrialResult` with its stable ``to_json``
form (golden-pinned), the keyword-only :class:`FlowSpec` that is the
only thing any engine's ``add_flow`` accepts, and the guarantee that no
repo-internal caller triggers a DeprecationWarning.
"""

import json
import runpy
import sys
import warnings
from pathlib import Path

import pytest

import repro
from repro import FlowSpec, api, attach_telemetry, build_network, run_trial
from repro.core.monitoring import NetworkMonitor
from repro.core.path_selection import KspMultipathPolicy
from repro.core.pnet import PNet
from repro.fluid.flowsim import FluidSimulator
from repro.obs import MemorySink, Registry, Tracer, set_registry
from repro.sim.network import PacketNetwork
from repro.topology import ParallelTopology, build_jellyfish

REPO_ROOT = Path(__file__).resolve().parent.parent


def make_pnet(n_planes=2, seed=0):
    return PNet(
        ParallelTopology.heterogeneous(
            lambda s: build_jellyfish(8, 4, 1, seed=s + seed), n_planes
        )
    )


def flows_for(pnet, n=4, size=100_000):
    policy = KspMultipathPolicy(pnet, k=4, seed=0)
    hosts = pnet.hosts
    return [
        FlowSpec(
            src=hosts[i], dst=hosts[i + 1], size=size,
            paths=policy.select(hosts[i], hosts[i + 1], i),
        )
        for i in range(min(n, len(hosts) - 1))
    ]


class TestFlowSpec:
    def test_keyword_only(self):
        with pytest.raises(TypeError):
            FlowSpec("h0", "h1", 10, [(0, ["h0", "s", "h1"])])

    def test_validation(self):
        path = [(0, ["h0", "s0", "h1"])]
        with pytest.raises(ValueError):
            FlowSpec(src="h0", dst="h1", size=-1, paths=path)
        with pytest.raises(ValueError):
            FlowSpec(src="h0", dst="h1", size=10, paths=[])
        with pytest.raises(ValueError):
            FlowSpec(src="h0", dst="h1", size=10,
                     paths=[(0, ["h9", "s0", "h1"])])

    def test_planes_property(self):
        spec = FlowSpec(
            src="h0", dst="h1", size=10,
            paths=[(2, ["h0", "a", "h1"]), (0, ["h0", "b", "h1"])],
        )
        assert spec.planes == (2, 0)

    def test_replace(self):
        spec = FlowSpec(src="h0", dst="h1", size=10,
                        paths=[(0, ["h0", "s", "h1"])])
        bigger = spec.replace(size=20, tag="x")
        assert bigger.size == 20 and bigger.tag == "x"
        assert bigger.src == "h0" and spec.size == 10

    def test_exported_from_repro_and_core(self):
        from repro.core import FlowSpec as core_spec

        assert repro.FlowSpec is core_spec is FlowSpec


class TestDeprecationShim:
    """The legacy positional ``add_flow`` form is gone: every engine
    takes one :class:`FlowSpec`, by position or as ``spec=``."""

    def test_packet_positional_raises(self):
        pnet = make_pnet()
        net = PacketNetwork(pnet.planes)
        spec = flows_for(pnet, n=1)[0]
        with pytest.raises(TypeError):
            net.add_flow(spec.src, spec.dst, spec.size, spec.paths)
        with pytest.raises(TypeError, match="takes one FlowSpec"):
            net.add_flow(spec.src)

    def test_fluid_positional_raises(self):
        pnet = make_pnet()
        sim = FluidSimulator(pnet.planes)
        spec = flows_for(pnet, n=1)[0]
        with pytest.raises(TypeError):
            sim.add_flow(spec.src, spec.dst, spec.size, spec.paths)
        with pytest.raises(TypeError, match="takes one FlowSpec"):
            sim.add_flow(spec.src)

    def test_spec_form_does_not_warn(self):
        pnet = make_pnet()
        spec = flows_for(pnet, n=1)[0]
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            for kind in ("packet", "fluid", "hybrid"):
                engine = build_network(pnet, kind=kind)
                engine.add_flow(spec=spec)
                engine.add_flow(spec)  # positional FlowSpec is fine too

    def test_spec_plus_positional_rejected(self):
        pnet = make_pnet()
        spec = flows_for(pnet, n=1)[0]
        for kind in ("packet", "fluid", "hybrid"):
            engine = build_network(pnet, kind=kind)
            with pytest.raises(TypeError):
                engine.add_flow(spec.src, spec=spec)
            with pytest.raises(TypeError):
                engine.add_flow("h0", "h1")

    def test_no_internal_caller_uses_legacy_form(self):
        """Repo code (src/ + examples/) must be fully migrated."""
        pnet = make_pnet()
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from tests.obs_probe import traced_trial
            from repro.sim.rpc import RpcClient

            net = PacketNetwork(pnet.planes)
            policy = KspMultipathPolicy(pnet, k=4, seed=0)
            client = RpcClient(
                network=net,
                client=pnet.hosts[0],
                destinations=[pnet.hosts[1]],
                select_paths=lambda s, d, i: policy.select(s, d, i),
                request_bytes=2000,
                response_bytes=2000,
            )
            client.start()
            net.run()
            assert client.done
            traced_trial()

    def test_examples_clean_under_deprecation_errors(self):
        """operator_console (the CI smoke example) runs warning-free."""
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            argv = sys.argv
            sys.argv = ["operator_console.py"]
            try:
                runpy.run_path(
                    str(REPO_ROOT / "examples" / "operator_console.py"),
                    run_name="not_main",
                )
            finally:
                sys.argv = argv


class TestBuildNetwork:
    def test_kinds(self):
        pnet = make_pnet()
        assert isinstance(build_network(pnet, kind="packet"), PacketNetwork)
        assert isinstance(build_network(pnet, kind="fluid"), FluidSimulator)
        with pytest.raises(ValueError):
            build_network(pnet, kind="quantum")

    def test_accepts_many_plane_containers(self):
        pnet = make_pnet()
        for planes in (pnet, pnet.planes, pnet.planes[0]):
            net = build_network(planes, kind="packet")
            assert isinstance(net, PacketNetwork)
        assert len(build_network(pnet.planes[0], kind="packet").planes) == 1

    def test_kwargs_forwarded(self):
        pnet = make_pnet()
        net = build_network(pnet, kind="packet", queue_packets=17)
        assert net.queue_packets == 17
        sim = build_network(pnet, kind="fluid", slow_start=False)
        assert sim.slow_start is False


class TestRunTrial:
    def test_packet_trial(self):
        pnet = make_pnet()
        reg = Registry(tracer=Tracer())
        net = build_network(pnet, kind="packet", obs=reg)
        result = run_trial(net, flows_for(pnet))
        assert len(result.records) == len(flows_for(pnet))
        assert isinstance(result.monitor, NetworkMonitor)
        assert result.metrics  # live registry -> snapshot present
        # monitor merge equals the registry's exported counters
        for plane, stats in result.monitor.stats.items():
            assert reg.value("net.flow.bytes", plane=plane) == (
                stats.bytes_carried
            )

    def test_fluid_trial(self):
        pnet = make_pnet()
        sim = build_network(pnet, kind="fluid")
        result = run_trial(sim, flows_for(pnet))
        assert len(result.records) == len(flows_for(pnet))
        assert result.metrics == []  # disabled default registry
        total_bytes = sum(
            s.bytes_carried for s in result.monitor.stats.values()
        )
        assert total_bytes == sum(f.size for f in flows_for(pnet))

    def test_facade_exported_from_repro(self):
        assert repro.build_network is api.build_network
        assert repro.run_trial is api.run_trial
        assert repro.attach_telemetry is api.attach_telemetry
        assert repro.TrialResult is api.TrialResult


class TestEngineRegistry:
    """``build_network``'s fixed kind table and ``run_trial``'s check."""

    def test_custom_engine_end_to_end(self):
        """An engine subclass built outside the facade runs a trial."""

        class EchoFluid(FluidSimulator):
            pass

        pnet = make_pnet()
        net = EchoFluid(pnet.planes)
        result = run_trial(net, flows_for(pnet, n=2))
        assert result.engine == "fluid"
        assert len(result.records) == 2
        assert set(result.fidelity.values()) == {"fluid"}
        json.loads(result.to_json())  # renders

    def test_unknown_kind_lists_engines(self):
        pnet = make_pnet()
        with pytest.raises(ValueError, match="packet"):
            build_network(pnet, kind="quantum")

    def test_promotion_rejected_on_pure_engines(self):
        pnet = make_pnet()
        for kind in ("packet", "fluid"):
            net = build_network(pnet, kind=kind)
            with pytest.raises(ValueError):
                run_trial(net, flows_for(pnet, n=1), promotion=0.5)

    def test_run_trial_rejects_unregistered_network(self):
        with pytest.raises(TypeError):
            run_trial(object(), [])


class TestPackageShims:
    def test_module_path_imports_do_not_warn(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            from repro.fluid.flowsim import FluidSimulator  # noqa: F401
            from repro.sim.network import PacketNetwork  # noqa: F401
            from repro.fluid import FlowRecord  # noqa: F401
            from repro.fluid import max_min_rates  # noqa: F401
            from repro.sim import EventLoop, RpcClient  # noqa: F401

    def test_package_level_constructors_removed(self):
        import repro.fluid
        import repro.sim

        # The engine classes live only in their modules; workload code
        # builds them through repro.api.build_network.
        for module, name in ((repro.sim, "PacketNetwork"),
                             (repro.fluid, "FluidSimulator")):
            assert name not in module.__all__
            with pytest.raises(AttributeError):
                getattr(module, name)

    def test_unknown_attribute_raises(self):
        import repro.fluid
        import repro.sim

        with pytest.raises(AttributeError):
            repro.sim.NoSuchThing
        with pytest.raises(AttributeError):
            repro.fluid.NoSuchThing


class TestTrialResult:
    GOLDEN = Path(__file__).parent / "golden" / "trial_result.json"

    def _result(self):
        pnet = make_pnet()
        net = build_network(pnet, kind="fluid")
        return run_trial(net, flows_for(pnet))

    def test_fields(self):
        result = self._result()
        assert result.engine == "fluid"
        assert result.meta["n_planes"] == 2
        assert result.meta["n_records"] == len(result.records)
        assert set(result.fidelity) == {r.flow_id for r in result.records}

    def test_to_json_schema_and_shape(self):
        payload = json.loads(self._result().to_json())
        assert payload["schema"] == api.TRIAL_RESULT_SCHEMA
        assert payload["engine"] == "fluid"
        row = payload["records"][0]
        for field in ("flow_id", "src", "dst", "size", "start", "finish",
                      "fct", "n_subflows", "planes", "fidelity"):
            assert field in row
        assert payload["monitor"]

    def test_golden_fixture(self, update_golden):
        """The serialized form is a stable, documented format."""
        text = self._result().to_json()
        if update_golden:
            self.GOLDEN.parent.mkdir(exist_ok=True)
            self.GOLDEN.write_text(text + "\n")
            return
        assert self.GOLDEN.exists(), (
            f"missing golden fixture {self.GOLDEN}; generate it with "
            f"pytest tests/test_api.py --update-golden"
        )
        assert text + "\n" == self.GOLDEN.read_text(), (
            "TrialResult.to_json() output diverged from the golden "
            "fixture; if intentional, rerun with --update-golden and "
            "bump TRIAL_RESULT_SCHEMA if the shape changed"
        )


class TestAttachTelemetry:
    def test_installs_and_detaches(self):
        from repro.obs import NullRegistry, get_registry

        reg = attach_telemetry(trace=True)
        try:
            assert get_registry() is reg
            assert reg.tracer is not None
        finally:
            set_registry(None)
        assert isinstance(get_registry(), NullRegistry)

    def test_no_install(self):
        from repro.obs import NullRegistry, get_registry

        reg = attach_telemetry(install=False)
        assert isinstance(get_registry(), NullRegistry)
        assert reg.enabled

    def test_jsonl_files_written(self, tmp_path):
        from repro.obs import read_jsonl

        metrics = tmp_path / "m.jsonl"
        trace = tmp_path / "t.jsonl"
        reg = attach_telemetry(
            metrics_path=str(metrics), trace_path=str(trace), install=False
        )
        pnet = make_pnet()
        net = build_network(pnet, kind="packet", obs=reg)
        run_trial(net, flows_for(pnet))
        reg.close()
        metric_rows = read_jsonl(str(metrics))
        trace_rows = read_jsonl(str(trace))
        assert any(r["name"] == "net.flow.bytes" for r in metric_rows)
        assert any(r["kind"] == "flow.complete" for r in trace_rows)

    def test_trace_capacity_and_verbose(self):
        reg = attach_telemetry(
            trace=True, trace_capacity=8, verbose=True, install=False
        )
        assert reg.tracer.capacity == 8
        assert reg.tracer.verbose

    def test_memory_sink_composes(self):
        sink = MemorySink()
        reg = attach_telemetry(trace=True, install=False)
        reg.metric_sinks.append(sink)
        pnet = make_pnet()
        net = build_network(pnet, kind="packet", obs=reg)
        run_trial(net, flows_for(pnet, n=1))
        reg.flush()
        assert any(r["name"] == "sim.events.processed" for r in sink.rows)
