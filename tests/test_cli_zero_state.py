"""Zero-state CLI maintenance verbs must report cleanly, never crash.

``repro cache stats`` / ``repro ckpt list`` are the first commands a
user runs on a fresh machine -- before any cache or checkpoint exists.
Regression pins: both exit 0 with a readable zero-state report on
missing *and* empty roots (and ``prune`` is a no-op, not an error).
"""

import json
import shutil

import pytest

from repro.cli import main


class TestCacheZeroState:
    def test_stats_on_missing_dir(self, tmp_path, monkeypatch, capsys):
        root = tmp_path / "never-created"
        monkeypatch.setenv("PNET_CACHE_DIR", str(root))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out
        assert str(root) in out

    def test_stats_on_empty_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "entries:   0" in out
        assert "0.0 MB" in out

    def test_historic_cache_route(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path / "missing"))
        assert main(["cache"]) == 0
        assert "entries:   0" in capsys.readouterr().out

    def test_clear_on_empty_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        assert main(["cache", "--clear"]) == 0
        assert "cleared 0 entries" in capsys.readouterr().out

    def test_prune_on_empty_cache(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path / "missing"))
        assert main(["cache", "prune", "--max-bytes", "1000"]) == 0
        assert "pruned 0 entries" in capsys.readouterr().out

    def test_stats_when_cache_disabled(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("PNET_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("PNET_CACHE", "0")
        assert main(["cache", "stats"]) == 0
        assert "disabled" in capsys.readouterr().out


class TestCkptZeroState:
    def test_list_on_missing_root(self, tmp_path, capsys):
        root = tmp_path / "never-created"
        assert main(["ckpt", "list", str(root)]) == 0
        out = capsys.readouterr().out
        assert f"no checkpoints under {root}" in out

    def test_list_on_empty_root(self, tmp_path, capsys):
        assert main(["ckpt", "list", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_list_ignores_unrelated_dirs(self, tmp_path, capsys):
        (tmp_path / "not-a-checkpoint").mkdir()
        assert main(["ckpt", "list", str(tmp_path)]) == 0
        assert "no checkpoints" in capsys.readouterr().out

    def test_prune_on_missing_root(self, tmp_path, capsys):
        root = tmp_path / "never-created"
        assert main(
            ["ckpt", "prune", str(root), "--keep-last", "2"]
        ) == 0
        assert "pruned 0 checkpoint(s)" in capsys.readouterr().out

    def test_restore_on_missing_root_fails_loudly(self, tmp_path):
        # The one verb that *cannot* no-op: resuming nothing is a user
        # error and must say so, not silently run from scratch.
        from repro.ckpt import CheckpointError

        with pytest.raises(CheckpointError, match="no .*checkpoint"):
            main(["ckpt", "restore", str(tmp_path / "missing")])


class TestBadArguments:
    """A bad ``ckpt`` or ``faults`` argument exits 2 naming its flag,
    before any network is built -- never a traceback, and never a run
    that writes nothing to restore."""

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        import repro.exp.degradation

        def run_faulted(**kwargs):
            raise AssertionError("a refused command ran the scenario")

        monkeypatch.setattr(repro.exp.degradation, "run_faulted", run_faulted)

    def refused(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-1", "0", "0.05"])
    def test_save_stop_after_before_first_checkpoint(self, value, tmp_path,
                                                     capsys):
        # The tiny scale checkpoints every 0.1 s of simulated time: a run
        # stopped at or before that leaves nothing to restore.
        root = tmp_path / "ck"
        self.refused(
            ["ckpt", "save", str(root), "--scale", "tiny",
             "--stop-after", value],
            "--stop-after", capsys,
        )
        assert not root.exists()

    @pytest.mark.parametrize("value", ["0", "-0.5", "nan"])
    def test_save_every_must_be_positive(self, value, tmp_path, capsys):
        root = tmp_path / "ck"
        self.refused(
            ["ckpt", "save", str(root), "--scale", "tiny", "--every", value],
            "--every", capsys,
        )
        assert not root.exists()

    def test_prune_keep_last_must_be_positive(self, tmp_path, capsys):
        self.refused(
            ["ckpt", "prune", str(tmp_path), "--keep-last", "0"],
            "--keep-last", capsys,
        )

    def test_faults_schedule_file_missing(self, tmp_path, capsys):
        self.refused(
            ["faults", "run", "--schedule", str(tmp_path / "nope.json")],
            "--schedule", capsys,
        )

    @pytest.mark.parametrize("text", [
        "{not json",
        '{"version": 1, "events": '
        '[{"at": 0.1, "kind": "plane_down", "plane": 9}]}',
    ], ids=["not-json", "missing-plane"])
    def test_faults_schedule_file_bad(self, text, tmp_path, capsys):
        path = tmp_path / "schedule.json"
        path.write_text(text)
        self.refused(
            ["faults", "run", "--scale", "tiny", "--schedule", str(path)],
            "--schedule", capsys,
        )


class TestCkptRoot:
    """``inspect`` and ``verify`` take a checkpoint root the way
    ``restore`` does: they read its newest valid checkpoint."""

    @pytest.fixture(scope="class")
    def root(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("drill") / "ck"
        assert main([
            "ckpt", "save", str(root), "--scale", "tiny",
            "--stop-after", "0.25",
        ]) == 0
        return root

    def test_inspect_root(self, root, capsys):
        capsys.readouterr()
        assert main(["ckpt", "inspect", str(root)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["path"] == str(root / "ckpt-00000001")
        assert summary["valid"] is True

    def test_verify_root(self, root, capsys):
        capsys.readouterr()
        assert main(["ckpt", "verify", str(root)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == [
            f"{root / name}: OK" for name in ("ckpt-00000000", "ckpt-00000001")
        ]

    def test_verify_root_fails_on_a_corrupt_newest(self, root, tmp_path,
                                                   capsys):
        """A valid older checkpoint does not hide a corrupt newer one
        from ``verify``; ``inspect`` still reads the valid one."""
        copy = tmp_path / "ck"
        shutil.copytree(root, copy)
        newest = copy / "ckpt-00000001"
        payload = next(
            p for p in sorted(newest.iterdir()) if p.name != "MANIFEST.json"
        )
        data = bytearray(payload.read_bytes())
        data[0] ^= 0xFF
        payload.write_bytes(bytes(data))
        capsys.readouterr()
        assert main(["ckpt", "verify", str(copy)]) == 1
        out = capsys.readouterr().out
        assert f"{copy / 'ckpt-00000000'}: OK" in out
        assert f"{newest}: FAILED" in out
        assert main(["ckpt", "inspect", str(copy)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["path"] == str(copy / "ckpt-00000000")

    @pytest.mark.parametrize("action", ["inspect", "verify"])
    def test_no_checkpoint_is_one_failed_line(self, action, tmp_path,
                                              capsys):
        assert main(["ckpt", action, str(tmp_path / "none")]) == 1
        out = capsys.readouterr().out
        assert out.count("FAILED") == 1 and "Traceback" not in out
