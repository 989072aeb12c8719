"""Inventory and transport layer of :mod:`repro.farm`.

Declarative host files (JSON always, YAML when available), HostSpec
validation, capability filtering, environment resolution, and the ssh
transport's exact command line (built, never executed -- no network in
tests).
"""

import json

import pytest

from repro.config import DEFAULT_FARM_TIMEOUT, ConfigError, RunConfig
from repro.farm.inventory import (
    FarmError,
    HostSpec,
    Inventory,
    local_inventory,
    resolve_inventory,
)
from repro.farm.transport import (
    AUTHKEY_ENV,
    LocalTransport,
    SshTransport,
    get_transport,
)


class TestHostSpec:
    def test_defaults(self):
        host = HostSpec(name="box")
        assert host.transport == "local"
        assert host.slots == 1
        assert host.supports_backend("shm")
        assert not host.supports_backend("mpi")

    def test_name_validation(self):
        with pytest.raises(FarmError, match="slash-free"):
            HostSpec(name="a/b")
        with pytest.raises(FarmError, match="slash-free"):
            HostSpec(name="")

    def test_unknown_transport(self):
        with pytest.raises(FarmError, match="unknown transport"):
            HostSpec(name="box", transport="carrier-pigeon")

    def test_slots_floor(self):
        with pytest.raises(FarmError, match="slots"):
            HostSpec(name="box", slots=0)

    def test_ssh_needs_address(self):
        with pytest.raises(FarmError, match="address"):
            HostSpec(name="box", transport="ssh")

    def test_shard_backends_frozen_from_list(self):
        host = HostSpec(name="box", shard_backends=["local"])
        assert host.shard_backends == ("local",)

    def test_unknown_shard_backend_rejected(self):
        with pytest.raises(
            FarmError, match=r"host 'box': unknown shard backend 'process'"
        ):
            HostSpec(name="box", shard_backends=["local", "process"])


class TestInventory:
    def test_empty_rejected(self):
        with pytest.raises(FarmError, match="no hosts"):
            Inventory(())

    def test_duplicate_names(self):
        with pytest.raises(FarmError, match="duplicate"):
            Inventory((HostSpec(name="a"), HostSpec(name="a")))

    def test_n_slots(self):
        inv = Inventory((
            HostSpec(name="a", slots=2), HostSpec(name="b", slots=3),
        ))
        assert inv.n_slots == 5

    def test_capable_filters(self):
        inv = Inventory((
            HostSpec(name="a", shard_backends=("local",)),
            HostSpec(name="b"),
        ))
        assert [h.name for h in inv.capable("shm").hosts] == ["b"]
        assert inv.capable(None) is inv

    def test_capable_empty_raises(self):
        inv = Inventory((HostSpec(name="a", shard_backends=("local",)),))
        with pytest.raises(FarmError, match="supports shard backend"):
            inv.capable("shm")

    def test_from_data_shapes(self):
        by_dict = Inventory.from_data(
            {"hosts": [{"name": "a", "slots": 2}]}
        )
        by_list = Inventory.from_data([{"name": "a", "slots": 2}])
        assert by_dict == by_list
        assert by_dict.hosts[0].slots == 2

    def test_from_data_rejects_unknown_keys(self):
        with pytest.raises(FarmError, match="unknown keys"):
            Inventory.from_data([{"name": "a", "gpus": 8}])

    def test_from_data_rejects_non_mapping(self):
        with pytest.raises(FarmError, match="not a mapping"):
            Inventory.from_data(["a-host"])
        with pytest.raises(FarmError, match="list of hosts"):
            Inventory.from_data("nope")

    def test_from_file_json(self, tmp_path):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps({"hosts": [
            {"name": "local", "slots": 2},
            {"name": "big", "transport": "ssh", "address": "u@big",
             "slots": 4, "cores": 32},
        ]}))
        inv = Inventory.from_file(path)
        assert inv.n_slots == 6
        assert inv.hosts[1].address == "u@big"

    def test_from_file_rejects_unknown_shard_backend(self, tmp_path):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps({"hosts": [
            {"name": "big", "shard_backends": ["shm", "process"]},
        ]}))
        with pytest.raises(
            FarmError, match=r"host 'big': unknown shard backend 'process'"
        ):
            Inventory.from_file(path)

    def test_from_file_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "farm.yaml"
        path.write_text(yaml.safe_dump({"hosts": [
            {"name": "local", "slots": 3},
        ]}))
        assert Inventory.from_file(path).n_slots == 3

    def test_from_file_missing(self, tmp_path):
        with pytest.raises(FarmError, match="cannot read"):
            Inventory.from_file(tmp_path / "absent.json")


class TestResolution:
    def test_none_without_env(self, monkeypatch):
        monkeypatch.delenv("PNET_FARM_INVENTORY", raising=False)
        assert resolve_inventory(RunConfig.from_env().farm_inventory) is None

    def test_env_file(self, tmp_path, monkeypatch):
        path = tmp_path / "farm.json"
        path.write_text(json.dumps([{"name": "a"}]))
        monkeypatch.setenv("PNET_FARM_INVENTORY", str(path))
        inv = resolve_inventory(RunConfig.from_env().farm_inventory)
        assert inv is not None and inv.hosts[0].name == "a"

    def test_arg_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PNET_FARM_INVENTORY", "/does/not/exist")
        inv = local_inventory(2)
        assert resolve_inventory(inv) is inv
        # The argument is put in before the variable would be checked.
        assert RunConfig.from_env(farm_inventory=inv).farm_inventory is inv

    def test_hostspec_sequence(self):
        inv = resolve_inventory([HostSpec(name="a")])
        assert isinstance(inv, Inventory)

    def test_timeout_default_and_env(self, monkeypatch):
        monkeypatch.delenv("PNET_FARM_TIMEOUT", raising=False)
        assert RunConfig.from_env().farm_timeout == DEFAULT_FARM_TIMEOUT
        monkeypatch.setenv("PNET_FARM_TIMEOUT", "2.5")
        assert RunConfig.from_env().farm_timeout == 2.5
        assert RunConfig.from_env(farm_timeout=1.0).farm_timeout == 1.0

    def test_timeout_validation(self, monkeypatch):
        monkeypatch.setenv("PNET_FARM_TIMEOUT", "soon")
        with pytest.raises(ConfigError, match="must be a number"):
            RunConfig.from_env()
        with pytest.raises(ConfigError, match="> 0"):
            RunConfig.from_env(farm_timeout=0)


class TestTransports:
    def test_registry(self):
        assert isinstance(get_transport("local"), LocalTransport)
        assert isinstance(get_transport("ssh"), SshTransport)
        with pytest.raises(FarmError, match="unknown transport"):
            get_transport("teleport")

    def test_ssh_argv(self):
        host = HostSpec(
            name="big", transport="ssh", address="user@big",
            python="python3.11", env={"PYTHONPATH": "/srv/repo/src"},
        )
        argv = SshTransport().build_argv(
            host, "big/0", "10.0.0.1:5000", "ab12", 2.0
        )
        assert argv[0] == "ssh"
        assert "BatchMode=yes" in argv
        assert "user@big" in argv
        env_idx = argv.index("env")
        assert f"{AUTHKEY_ENV}=ab12" in argv[env_idx:]
        assert "PYTHONPATH=/srv/repo/src" in argv[env_idx:]
        py_idx = argv.index("python3.11")
        assert argv[py_idx + 1:py_idx + 3] == ["-m", "repro"]
        assert "--worker-id" in argv and "big/0" in argv

    def test_local_inventory_helper(self):
        inv = local_inventory(workers=3, env={"X": "1"})
        assert inv.n_slots == 3
        assert inv.hosts[0].env == {"X": "1"}
