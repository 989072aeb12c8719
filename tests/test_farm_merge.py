"""Concurrent-writer checkpoint safety.

The :mod:`repro.ckpt.store` primitives that make several writers
sharing a checkpoint root safe -- a farm trial's checkpoint directory
written by a worker and the stalled worker it replaced, through
:func:`repro.ckpt.snapshot.save` -- atomic step claiming, race-safe
removal, and pruning that never deletes a sibling's in-flight
(manifest-less) directory.
"""

import threading

from repro.ckpt.store import (
    claim_step,
    is_valid,
    latest,
    list_checkpoints,
    prune,
    read_payload,
    remove_checkpoint_dir,
    step_dir,
    step_of,
    write_checkpoint,
)


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
        # Two writers interleave checkpoints with writer-side keep_last
        # retention into one root, as snapshot.save does; every
        # surviving checkpoint is valid and the newest one reads back.
        errors = []
        written = set()

        def writer(host):
            try:
                for i in range(10):
                    __, directory = claim_step(tmp_path)
                    payload = f"{host}-{i}".encode()
                    write_checkpoint(directory, {"p": payload}, {"kind": "t"})
                    written.add(payload)
                    prune(tmp_path, keep_last=3, remove_invalid=False)
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
        survivors = list_checkpoints(tmp_path)
        assert len(survivors) >= 3
        assert all(is_valid(path) for path in survivors)
        newest = latest(tmp_path)
        assert newest is not None
        assert read_payload(newest, "p") in written
