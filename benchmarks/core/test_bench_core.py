"""Smoke test of the core benchmark on shrunken workloads.

Run with ``pytest benchmarks/core``.  Every workload runs twice through
the real harness (set-ups, timed reps, one profiled rep) at sizes that
finish in seconds.
"""

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

import bench
import workloads
from repro.units import KB

SMALL = dict(seed=0, switches=8, hosts_per_switch=2)

SHRUNKEN = {
    "packet-permutation": lambda: workloads.PacketPermutation(
        **SMALL, k=4, flow_bytes=20 * KB),
    "packet-incast": lambda: workloads.PacketIncast(
        **SMALL, receivers=2, fan_in=4, block_bytes=20 * KB),
    "fluid-arrivals": lambda: workloads.FluidArrivals(**SMALL, flows=30),
    "hybrid-sampled": lambda: workloads.HybridSampled(
        **SMALL, flows=30, promotion="sampled:0.3:0"),
    "shard-mixed": lambda: workloads.ShardMixed(
        **SMALL, k=4, flow_bytes=50 * KB),
    "sweep-fig7": lambda: workloads.SweepFig7(
        racks=8, degree=3, plane_counts=(1, 2)),
}

LISTED = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def clean_env():
    saved = dict(os.environ)
    bench.scrub_environment()
    try:
        yield
    finally:
        os.environ.clear()
        os.environ.update(saved)


def test_shrunken_covers_every_workload():
    assert set(SHRUNKEN) == set(workloads.WORKLOADS)
    assert [w["name"] for w in LISTED["workloads"]] == list(
        workloads.WORKLOADS
    )


def test_benchmark_json_matches_metric_tables():
    e2e = [
        {"name": m.name, "unit": m.unit, "better": m.better,
         "bound": m.bound}
        for m in bench.END_TO_END if m.listed
    ]
    per_layer = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in bench.PER_LAYER if m.listed
    ]
    assert LISTED["end_to_end"] == e2e
    assert LISTED["per_layer"] == per_layer
    setup = LISTED["end_to_end"][0]
    assert setup["name"] == "setup_s"
    assert setup["bound"] == max(m["bound"] for m in LISTED["end_to_end"])


@pytest.mark.parametrize("name", list(SHRUNKEN))
def test_workload_smoke(name, tmp_path, clean_env):
    records = []
    for __ in range(2):
        record, spans = bench.run_workload(
            SHRUNKEN[name](), seconds=0, trace=True, workdir=tmp_path
        )
        records.append(record)
        assert record["correct"], record["checks"]
        assert record["failed"] == 0
        assert {s.name for s in spans.records} >= {
            "workload", "engine.build", "engine.run", "check", "rep.traced",
        }

    first, second = records
    for metric in LISTED["end_to_end"]:
        assert first["end_to_end"][metric["name"]]["unit"] == metric["unit"]
        assert first["end_to_end"][metric["name"]]["value"] > 0
    for metric in LISTED["per_layer"]:
        assert first["per_layer"][metric["name"]]["unit"] == metric["unit"]
    for m in bench.EXACT:
        assert first["per_layer"][m.name] == second["per_layer"][m.name], m
    assert first["records_digest"] == second["records_digest"]

    layer = first["per_layer"]
    assert layer["unattributed.self_s"]["value"] <= (
        0.05 * layer["trace.self_s"]["value"]
    )
    shares = [layer[f"{n}.self_share"]["value"] for n in bench.layers.LAYERS]
    assert sum(shares) == pytest.approx(100.0)

    line = json.loads(bench.summary_line({name: first}, trace=True))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == {m["name"] for m in LISTED["per_layer"]}
    line = json.loads(bench.summary_line({name: first}, trace=False))
    assert set(line["metrics"]) == {m["name"] for m in LISTED["end_to_end"]}


@pytest.mark.parametrize(
    "a, b, verdict",
    [
        ([1.00, 1.01, 0.99], [1.02, 1.01, 1.03], "ok"),
        ([1.00, 1.01, 0.99], [1.40, 1.41, 1.39], "worse"),
        ([1.00, 1.01, 0.99], [0.50, 0.51, 0.49], "better"),
        ([1.00, 2.00, 0.50], [1.00, 1.01, 0.99], "unresolved"),
        ([2.00, 2.10, 1.90], [1.00, 1.50, 0.50], "better"),
    ],
)
def test_compare_verdicts(a, b, verdict):
    wall = next(m for m in bench.END_TO_END if m.name == "wall_s")
    assert bench.judge(wall, a, b)[0] == verdict


def test_absolute_bound_flags_any_new_failure():
    failed = next(m for m in bench.END_TO_END if m.name == "failed_frac")
    assert bench.judge(failed, [0.0, 0.0], [0.0, 0.0])[0] == "ok"
    assert bench.judge(failed, [0.0, 0.0], [0.01, 0.01])[0] == "worse"
    assert bench.judge(failed, [0.0, 0.0], [0.0, 0.01])[0] == "unresolved"


def test_layer_table_longest_prefix():
    layers = bench.layers
    assert layers.layer_of_module("repro.sim.events") == "sim.events"
    assert layers.layer_of_module("repro.sim.dctcp") == "sim.tcp"
    assert layers.layer_of_module("repro.core.path_selection") == "routing"
    assert layers.layer_of_module("repro.fluid.maxmin") == "fluid.maxmin"
    assert layers.layer_of_module("repro.exp.runner") == "exp"
    assert layers.layer_of_module("repro.api") == layers.UNATTRIBUTED
    assert layers.module_of_file(
        str(bench.SRC / "repro" / "sim" / "__init__.py"), bench.SRC
    ) == "repro.sim"
    assert layers.module_of_file("/elsewhere/x.py", bench.SRC) is None


def test_missing_program_fails_without_a_result(tmp_path):
    """A copy holding only the benchmark exits non-zero and prints no line."""
    copy = tmp_path / "benchmarks" / "core"
    shutil.copytree(bench.HERE, copy, ignore=shutil.ignore_patterns(
        "__pycache__"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "benchmarks/core/bench.py", "--workload",
         "packet-incast", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
    assert not pathlib.Path(tmp_path, "benchmarks", "results").exists()
