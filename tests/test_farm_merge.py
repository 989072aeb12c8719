"""Progress-container merging and concurrent-writer checkpoint safety.

Two halves: the :mod:`repro.farm.merge` fold (per-host containers ->
one result set, byte-identity enforced on collisions) and the
:mod:`repro.ckpt.store` primitives that make several writers sharing a
checkpoint root safe -- atomic step claiming, race-safe removal, and
pruning that never deletes a sibling's in-flight (manifest-less)
directory.
"""

import pickle
import threading

import pytest

from repro.ckpt.store import (
    CheckpointError,
    claim_step,
    latest,
    list_checkpoints,
    prune,
    remove_checkpoint_dir,
    step_dir,
    step_of,
    write_checkpoint,
)
from repro.farm import FarmError
from repro.farm.merge import (
    KIND_FARM,
    load_progress,
    merge_progress,
    merge_roots,
    write_progress,
)


class TestMergeFold:
    def test_disjoint_union(self):
        merged = merge_progress([
            {"a": 1, "b": 2}, {"c": 3}, {},
        ])
        assert merged == {"a": 1, "b": 2, "c": 3}

    def test_identical_overlap_ok(self):
        merged = merge_progress([
            {"a": {"x": [1, 2]}}, {"a": {"x": [1, 2]}, "b": 0},
        ])
        assert merged == {"a": {"x": [1, 2]}, "b": 0}

    def test_conflicting_overlap_raises(self):
        with pytest.raises(FarmError, match="determinism violation"):
            merge_progress([{"a": 1}, {"a": 2}])

    def test_write_load_round_trip(self, tmp_path):
        done = {"h1": {"fct": 0.25}, "h2": {"fct": 0.5}}
        write_progress(tmp_path, done, total=4)
        assert load_progress(tmp_path) == done
        meta = __import__("json").loads(
            (latest(tmp_path) / "MANIFEST.json").read_text()
        )["meta"]
        assert meta["kind"] == KIND_FARM
        assert meta["completed"] == 2
        assert meta["total"] == 4

    def test_load_empty_root(self, tmp_path):
        assert load_progress(tmp_path / "nothing") == {}

    def test_load_rejects_foreign_kind(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0),
            {"state.pkl": b"x"},
            {"kind": "sim"},
        )
        with pytest.raises(CheckpointError, match="not trial progress"):
            load_progress(tmp_path)

    def test_load_accepts_sweep_kind(self, tmp_path):
        done = {"h": 1}
        write_checkpoint(
            step_dir(tmp_path, 0),
            {"sweep.pkl": pickle.dumps(done)},
            {"kind": "sweep", "completed": 1, "total": 1},
        )
        assert load_progress(tmp_path) == done

    def test_merge_roots_writes_container(self, tmp_path):
        write_progress(tmp_path / "hostA", {"a": 1}, total=3)
        write_progress(tmp_path / "hostB", {"b": 2, "a": 1}, total=3)
        merged = merge_roots(
            [tmp_path / "hostA", tmp_path / "hostB"],
            out_root=tmp_path / "merged",
        )
        assert merged == {"a": 1, "b": 2}
        assert load_progress(tmp_path / "merged") == merged

    def test_retention(self, tmp_path):
        for i in range(5):
            write_progress(tmp_path, {"h": i}, total=5, keep_last=2)
        assert len(list_checkpoints(tmp_path)) == 2
        assert load_progress(tmp_path) == {"h": 4}


class TestConcurrentWriters:
    def test_claim_step_unique_across_threads(self, tmp_path):
        claimed = []
        lock = threading.Lock()

        def claim_many():
            for __ in range(20):
                step, directory = claim_step(tmp_path)
                with lock:
                    claimed.append(step)
                write_checkpoint(directory, {"p": b"x"}, {"kind": "t"})

        threads = [
            threading.Thread(target=claim_many) for __ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(claimed) == 80
        assert len(set(claimed)) == 80, "two writers shared a step"
        assert sorted(step_of(p) for p in list_checkpoints(tmp_path)) \
            == sorted(claimed)

    def test_prune_writer_side_skips_inflight(self, tmp_path):
        # A sibling began ckpt-00000005 (claimed, payload written, no
        # manifest yet).  Writer-side retention must leave it alone.
        for i in range(4):
            write_checkpoint(
                step_dir(tmp_path, i), {"p": b"x"}, {"kind": "t"}
            )
        inflight = step_dir(tmp_path, 5)
        inflight.mkdir()
        (inflight / "sweep.pkl").write_bytes(b"partial")
        prune(tmp_path, keep_last=1, remove_invalid=False)
        names = {p.name for p in list_checkpoints(tmp_path)}
        assert names == {"ckpt-00000003", "ckpt-00000005"}
        assert (inflight / "sweep.pkl").read_bytes() == b"partial"

    def test_prune_offline_removes_junk(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0), {"p": b"x"}, {"kind": "t"}
        )
        junk = step_dir(tmp_path, 1)
        junk.mkdir()
        prune(tmp_path, keep_last=1)  # offline default
        assert not junk.exists()

    def test_remove_checkpoint_dir_races_cleanly(self, tmp_path):
        target = step_dir(tmp_path, 0)
        write_checkpoint(target, {"p": b"x"}, {"kind": "t"})
        assert remove_checkpoint_dir(target) is True
        # The loser of the race sees ENOENT and reports not-removed.
        assert remove_checkpoint_dir(target) is False

    def test_concurrent_progress_writers_share_root(self, tmp_path):
        # Two "hosts" interleave progress writes with keep_last
        # retention into one root; every surviving container is valid
        # and the newest one loads.
        errors = []

        def writer(host):
            try:
                for i in range(10):
                    write_progress(
                        tmp_path, {f"{host}-{i}": i}, total=10,
                        keep_last=3,
                    )
            except Exception as exc:  # a sibling's prune must not kill us
                errors.append(exc)

        threads = [
            threading.Thread(target=writer, args=(h,))
            for h in ("A", "B")
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        newest = latest(tmp_path)
        assert newest is not None
        progress = load_progress(tmp_path)
        assert len(progress) == 1  # each write holds one entry
