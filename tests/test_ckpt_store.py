"""Container-level guarantees of the checkpoint store.

The store's contract is crash consistency without fsync heroics: the
manifest is written *last* via atomic rename, so a directory either has
a manifest describing fully-written payloads or it has no manifest and
every reader treats it as nonexistent.  Corruption of any kind --
bit flips, truncation, missing payloads, foreign format versions --
must be *detected*, never silently resumed from.
"""

import json
import os
import pathlib

import pytest

from repro.ckpt.store import (
    FORMAT_VERSION,
    MANIFEST_NAME,
    CheckpointError,
    atomic_write_bytes,
    checkpoints_size_bytes,
    inspect,
    is_valid,
    latest,
    list_checkpoints,
    next_step,
    prune,
    read_manifest,
    read_payload,
    remove_checkpoint_dir,
    remove_oldest_until,
    step_dir,
    step_of,
    verify,
    write_checkpoint,
)


class TestAtomicWrite:
    def test_writes_and_overwrites(self, tmp_path):
        path = tmp_path / "sub" / "blob.bin"
        atomic_write_bytes(path, b"one")
        assert path.read_bytes() == b"one"
        atomic_write_bytes(path, b"two")
        assert path.read_bytes() == b"two"

    def test_no_temp_litter(self, tmp_path):
        atomic_write_bytes(tmp_path / "blob.bin", b"data")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blob.bin"]


class TestWriteAndVerify:
    def test_round_trip(self, tmp_path):
        directory = write_checkpoint(
            tmp_path / "ck", {"a.pkl": b"alpha", "b.pkl": b"beta"},
            meta={"kind": "sim", "t": 1.5},
        )
        manifest = verify(directory)
        assert manifest["format_version"] == FORMAT_VERSION
        assert manifest["meta"] == {"kind": "sim", "t": 1.5}
        assert read_payload(directory, "a.pkl") == b"alpha"
        assert read_payload(directory, "b.pkl") == b"beta"
        assert is_valid(directory)

    def test_inspect_summarises(self, tmp_path):
        directory = write_checkpoint(
            tmp_path / "ck", {"a.pkl": b"alpha"}, meta={"kind": "sim"}
        )
        info = inspect(directory)
        assert info["valid"] is True
        assert info["files"] == {"a.pkl": 5}
        assert info["total_bytes"] == 5
        assert info["meta"]["kind"] == "sim"

    def test_empty_payloads_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path / "ck", {})

    def test_bad_payload_names_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path / "ck", {"a/b.pkl": b"x"})
        with pytest.raises(ValueError):
            write_checkpoint(tmp_path / "ck", {MANIFEST_NAME: b"x"})

    def test_non_bytes_payload_rejected(self, tmp_path):
        with pytest.raises(TypeError):
            write_checkpoint(tmp_path / "ck", {"a.pkl": "not bytes"})


class TestCorruptionDetection:
    def _checkpoint(self, tmp_path):
        return write_checkpoint(
            tmp_path / "ck", {"state.pkl": b"payload-bytes"},
            meta={"kind": "sim"},
        )

    def test_manifestless_directory_is_invisible(self, tmp_path):
        # A killed writer leaves payloads but no manifest: readers must
        # treat the directory as not-a-checkpoint, never as resumable.
        directory = tmp_path / "ck"
        directory.mkdir()
        (directory / "state.pkl").write_bytes(b"partial")
        assert not is_valid(directory)
        with pytest.raises(CheckpointError, match="no MANIFEST"):
            read_manifest(directory)

    def test_bit_flip_detected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        blob = bytearray((directory / "state.pkl").read_bytes())
        blob[0] ^= 0xFF
        (directory / "state.pkl").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError, match="hash mismatch"):
            verify(directory)
        with pytest.raises(CheckpointError):
            read_payload(directory, "state.pkl")

    def test_truncation_detected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        full = (directory / "state.pkl").read_bytes()
        (directory / "state.pkl").write_bytes(full[:-3])
        with pytest.raises(CheckpointError, match="truncated"):
            verify(directory)

    def test_missing_payload_detected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        (directory / "state.pkl").unlink()
        with pytest.raises(CheckpointError, match="missing"):
            verify(directory)

    def test_payload_vanishing_mid_verify_detected(
        self, tmp_path, monkeypatch
    ):
        # A sibling pruner removes the checkpoint between the size
        # check and the hashing: still a named CheckpointError, so
        # is_valid (and prune) read it as invalid instead of crashing.
        import repro.ckpt.store as store

        directory = self._checkpoint(tmp_path)
        hash_file = store._sha256_file

        def pruned_first(path):
            path.unlink()
            return hash_file(path)

        monkeypatch.setattr(store, "_sha256_file", pruned_first)
        with pytest.raises(CheckpointError, match="missing"):
            verify(directory)

    def test_unknown_payload_name(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        with pytest.raises(CheckpointError, match="no payload"):
            read_payload(directory, "other.pkl")

    def test_foreign_format_version_rejected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        manifest = json.loads((directory / MANIFEST_NAME).read_text())
        manifest["format_version"] = FORMAT_VERSION + 1
        (directory / MANIFEST_NAME).write_text(json.dumps(manifest))
        with pytest.raises(CheckpointError, match="not.*supported"):
            read_manifest(directory)
        assert not is_valid(directory)

    def test_malformed_manifest_rejected(self, tmp_path):
        directory = self._checkpoint(tmp_path)
        (directory / MANIFEST_NAME).write_text("[1, 2, 3]")
        with pytest.raises(CheckpointError, match="malformed"):
            read_manifest(directory)
        (directory / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(CheckpointError, match="unreadable"):
            read_manifest(directory)


class TestSequencing:
    def test_step_naming(self, tmp_path):
        assert step_dir(tmp_path, 3).name == "ckpt-00000003"
        assert step_of(step_dir(tmp_path, 3)) == 3
        assert step_of(tmp_path / "not-a-ckpt") is None

    def test_next_step_and_listing(self, tmp_path):
        assert next_step(tmp_path) == 0
        for step in (0, 1, 5):
            write_checkpoint(
                step_dir(tmp_path, step), {"s.pkl": b"x"}, {"kind": "sim"}
            )
        assert next_step(tmp_path) == 6
        assert [step_of(p) for p in list_checkpoints(tmp_path)] == [0, 1, 5]

    def test_latest_skips_partial_and_corrupt(self, tmp_path):
        good = write_checkpoint(
            step_dir(tmp_path, 0), {"s.pkl": b"good"}, {"kind": "sim"}
        )
        # Step 1: corrupt payload.  Step 2: no manifest (killed writer).
        bad = write_checkpoint(
            step_dir(tmp_path, 1), {"s.pkl": b"soon-corrupt"}, {"kind": "sim"}
        )
        (bad / "s.pkl").write_bytes(b"flipped")
        partial = step_dir(tmp_path, 2)
        partial.mkdir()
        (partial / "s.pkl").write_bytes(b"partial")
        assert latest(tmp_path) == good
        assert list_checkpoints(tmp_path, valid_only=True) == [good]

    def test_latest_empty_root(self, tmp_path):
        assert latest(tmp_path) is None
        assert latest(tmp_path / "never-created") is None


class TestRetention:
    def test_prune_keeps_newest_valid(self, tmp_path):
        for step in range(4):
            write_checkpoint(
                step_dir(tmp_path, step), {"s.pkl": b"x"}, {"kind": "sim"}
            )
        removed = prune(tmp_path, keep_last=2)
        assert [step_of(p) for p in removed] == [0, 1]
        assert [step_of(p) for p in list_checkpoints(tmp_path)] == [2, 3]

    def test_prune_always_deletes_invalid(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0), {"s.pkl": b"x"}, {"kind": "sim"}
        )
        partial = step_dir(tmp_path, 1)  # newer, but manifest-less
        partial.mkdir()
        (partial / "s.pkl").write_bytes(b"partial")
        removed = prune(tmp_path, keep_last=5)
        assert removed == [partial]
        assert [step_of(p) for p in list_checkpoints(tmp_path)] == [0]

    def test_prune_rejects_zero(self, tmp_path):
        with pytest.raises(ValueError):
            prune(tmp_path, keep_last=0)

    def test_remove_checkpoint_dir_races_cleanly(self, tmp_path):
        target = step_dir(tmp_path, 0)
        write_checkpoint(target, {"p": b"x"}, {"kind": "t"})
        assert remove_checkpoint_dir(target) is True
        # The loser of the race sees ENOENT and reports not-removed.
        assert remove_checkpoint_dir(target) is False

    def test_size_accounting(self, tmp_path):
        write_checkpoint(
            step_dir(tmp_path, 0), {"s.pkl": b"x" * 100}, {"kind": "sim"}
        )
        total = checkpoints_size_bytes(tmp_path)
        manifest_size = (
            step_dir(tmp_path, 0) / MANIFEST_NAME
        ).stat().st_size
        assert total == 100 + manifest_size

    def test_remove_oldest_until(self, tmp_path):
        entries = []
        for i, age in enumerate((30, 20, 10)):  # index 0 is oldest
            path = tmp_path / f"e{i}"
            path.write_bytes(b"x" * 100)
            mtime = 1_000_000 - age
            os.utime(path, (mtime, mtime))
            entries.append((path, 100, mtime))
        removed, freed = remove_oldest_until(entries, max_bytes=150)
        assert removed == [tmp_path / "e0", tmp_path / "e1"]
        assert freed == 200
        assert (tmp_path / "e2").exists()

    def test_remove_oldest_until_noop_under_budget(self, tmp_path):
        path = tmp_path / "e0"
        path.write_bytes(b"x")
        removed, freed = remove_oldest_until([(path, 1, 0.0)], max_bytes=10)
        assert removed == [] and freed == 0
        assert path.exists()
