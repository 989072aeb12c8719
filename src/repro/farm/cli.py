"""``python -m repro farm`` -- run-farm front end.

Subcommands:

* ``workers --inventory INV`` -- validate an inventory file and print
  its host/slot/capability table.
* ``run --inventory INV`` -- drive a trial sweep across the farm
  through :func:`repro.exp.runner.run_trials`; the default grid is the
  reference resumable trial (:func:`repro.farm.trial.demo_trial`) over
  ``--seeds``, and ``--spec FILE`` substitutes any JSON trial list.
* ``status ROOT`` -- progress of a (possibly still running, possibly
  killed) farm sweep from its newest progress container.
* ``merge ROOT [ROOT ...]`` -- fold per-host progress containers into
  one result set (``--out`` writes it as a new container).
* ``worker`` -- the agent end; launched by the dispatcher's transport,
  never by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from repro.config import current, use
from repro.farm.inventory import FarmError, Inventory, resolve_inventory


def _load_inventory() -> Inventory:
    inventory = resolve_inventory(current().farm_inventory)
    if inventory is None:
        raise FarmError(
            "no inventory: pass --inventory FILE or set "
            "PNET_FARM_INVENTORY"
        )
    return inventory


def _cmd_workers(args) -> int:
    inventory = _load_inventory()
    print(f"{'host':<16} {'transport':<9} {'slots':>5} {'cores':>5}  "
          f"backends")
    for host in inventory.hosts:
        row = host.to_row()
        print(
            f"{row['name']:<16} {row['transport']:<9} "
            f"{row['slots']:>5} {row['cores'] or '?':>5}  "
            f"{','.join(row['shard_backends'])}"
        )
    print(f"[farm] {len(inventory.hosts)} host(s), "
          f"{inventory.n_slots} worker slot(s)")
    return 0


def _demo_specs(seeds: List[int], n_flows: int):
    from repro.exp.runner import TrialSpec

    return [
        TrialSpec(
            fn="repro.farm.trial:demo_trial",
            key=("demo", seed),
            kwargs={"seed": seed, "n_flows": n_flows},
        )
        for seed in seeds
    ]


def _spec_file(path: str):
    from repro.exp.runner import TrialSpec

    with open(path) as handle:
        rows = json.load(handle)
    if not isinstance(rows, list):
        raise FarmError(f"{path}: expected a JSON list of trial specs")
    specs = []
    for i, row in enumerate(rows):
        try:
            specs.append(TrialSpec(
                fn=row["fn"],
                key=tuple(row["key"]),
                kwargs=dict(row.get("kwargs", {})),
            ))
        except (TypeError, KeyError) as exc:
            raise FarmError(f"{path}: bad spec entry {i}: {exc}")
    return specs


def _cmd_run(args) -> int:
    from repro.exp.runner import last_stats, run_trials

    inventory = _load_inventory()
    specs = (
        _spec_file(args.spec) if args.spec
        else _demo_specs(args.seeds, args.n_flows)
    )
    results = run_trials(specs, farm=inventory)
    stats = last_stats()
    print(f"[farm] {stats.summary()}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(
                {str(key): value for key, value in results.items()},
                handle, indent=2, sort_keys=True, default=str,
            )
        print(f"[farm] wrote {len(results)} result(s) to {args.out}")
    return 0


def _cmd_status(args) -> int:
    from repro.ckpt.store import latest, list_checkpoints, read_manifest

    chosen = latest(args.root)
    if chosen is None:
        print(f"[farm] no progress container under {args.root}")
        return 1
    meta = read_manifest(chosen).get("meta", {})
    kind = meta.get("kind", "?")
    completed = meta.get("completed", "?")
    total = meta.get("total", "?")
    print(
        f"[farm] {chosen.name}: kind={kind} trials {completed}/{total}"
    )
    trials_root = chosen.parent / "trials"
    if trials_root.is_dir():
        dirs = sorted(p for p in trials_root.iterdir() if p.is_dir())
        for trial_dir in dirs:
            steps = list_checkpoints(trial_dir)
            print(
                f"  {trial_dir.name}: {len(steps)} trial checkpoint(s)"
            )
    return 0


def _cmd_merge(args) -> int:
    from repro.farm.merge import merge_roots

    merged = merge_roots(args.roots, out_root=args.out)
    where = f" -> {args.out}" if args.out else ""
    print(
        f"[farm] merged {len(args.roots)} container root(s): "
        f"{len(merged)} distinct trial result(s){where}"
    )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # The worker agent keeps its own tiny parser (it is exec'd on
    # remote hosts; keep its surface stable and dependency-free).
    if argv and argv[0] == "worker":
        from repro.farm.worker import main as worker_main

        return worker_main(argv[1:])

    parser = argparse.ArgumentParser(
        prog="python -m repro farm",
        description="multi-host run-farm orchestration",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    workers = sub.add_parser(
        "workers", help="validate and print an inventory"
    )
    workers.add_argument("--inventory", metavar="FILE", default=None)

    run = sub.add_parser("run", help="run a trial sweep on the farm")
    run.add_argument("--inventory", metavar="FILE", default=None)
    run.add_argument(
        "--spec", metavar="FILE", default=None,
        help="JSON list of {fn, key, kwargs} trial specs "
        "(default: the built-in demo grid)",
    )
    run.add_argument(
        "--seeds", type=int, nargs="+", default=[0, 1, 2, 3],
        metavar="N", help="demo-grid seeds (ignored with --spec)",
    )
    run.add_argument(
        "--n-flows", type=int, default=6, metavar="N",
        help="demo-grid flows per trial (ignored with --spec)",
    )
    run.add_argument(
        "--timeout", type=float, default=None, metavar="SECONDS",
        help="worker heartbeat timeout (default $PNET_FARM_TIMEOUT)",
    )
    run.add_argument("--checkpoint-dir", metavar="DIR", default=None)
    run.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N"
    )
    run.add_argument("--keep-last", type=int, default=None, metavar="N")
    run.add_argument("--resume", action="store_true")
    run.add_argument(
        "--out", metavar="FILE", default=None,
        help="write merged results as JSON",
    )

    status = sub.add_parser(
        "status", help="show sweep progress from its containers"
    )
    status.add_argument("root", metavar="DIR")

    merge = sub.add_parser(
        "merge", help="fold per-host progress containers together"
    )
    merge.add_argument("roots", nargs="+", metavar="DIR")
    merge.add_argument(
        "--out", metavar="DIR", default=None,
        help="write the merged map as a new container under DIR",
    )

    parser.set_defaults(
        inventory=None, timeout=None, checkpoint_dir=None,
        checkpoint_every=None, keep_last=None, resume=False,
    )
    args = parser.parse_args(argv)
    from repro.cli import resolve_config

    config = resolve_config(
        parser,
        farm_inventory=args.inventory,
        farm_timeout=args.timeout,
        ckpt_dir=args.checkpoint_dir,
        ckpt_every=args.checkpoint_every,
        ckpt_keep=args.keep_last,
        resume=args.resume or None,
    )
    try:
        with use(config):
            if args.action == "workers":
                return _cmd_workers(args)
            if args.action == "run":
                return _cmd_run(args)
            if args.action == "status":
                return _cmd_status(args)
            return _cmd_merge(args)
    except FarmError as exc:
        print(f"[farm] error: {exc}", file=sys.stderr)
        return 1
