"""Command-line interface: run any experiment, print its tables, dump CSV.

Usage::

    python -m repro list
    python -m repro table1
    python -m repro fig10 --scale tiny
    python -m repro all --scale small --csv results/
    python -m repro fig6 --csv results/
    python -m repro fig9 --jobs 8        # fan trials over 8 workers
    python -m repro hybrid --scale tiny --promote sampled:0.1:0
    python -m repro hybrid --fidelity hybrid --promote 0.25
    python -m repro cache                # show artifact-cache stats
    python -m repro cache --clear        # drop all cached artifacts
    python -m repro cache stats          # per-kind on-disk inventory
    python -m repro cache prune --max-bytes 500000000
    python -m repro fig9 --scale tiny --metrics-out metrics.jsonl
    python -m repro fig9 --scale tiny --trace trace.jsonl
    python -m repro obs summarize metrics.jsonl trace.jsonl
    python -m repro faults run --chaos-seed 7 --scale tiny
    python -m repro faults run --schedule faults.json --metrics-out m.jsonl
    python -m repro ckpt save ckpts --scale tiny --every 0.1
    python -m repro ckpt restore ckpts
    python -m repro ckpt inspect ckpts   # newest valid checkpoint
    python -m repro ckpt verify ckpts/ckpt-00000000
    python -m repro ckpt list ckpts
    python -m repro ckpt prune ckpts --keep-last 2

Each experiment prints the same rows/series the paper reports; ``--csv``
additionally writes the raw result (flattened) for plotting.  Trials fan
out over ``PNET_JOBS`` processes (``--jobs`` overrides) with expensive
intermediates cached under ``PNET_CACHE_DIR``; results are identical at
any job count, and rerunning a killed experiment on the same cache
computes only the trials it had not finished.  Six experiments
(``ablation``, ``adaptive``, ``control``, ``expanders``, ``incast`` and
``queues``) run their grids in inline loops instead: ``--jobs`` does
not parallelise them and a rerun recomputes their trials.  Every command
resolves one :class:`~repro.config.RunConfig` from its flags and the
environment before it does any work, and a bad value exits 2.
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys
import time
from typing import Any, Dict, List, Optional

from repro.config import SCALES, ConfigError, RunConfig, use

#: Experiment registry: name -> module path (each has run() and main()).
EXPERIMENTS = {
    "table1": "repro.exp.table1",
    "fig6": "repro.exp.fig6",
    "fig7": "repro.exp.fig7",
    "fig8": "repro.exp.fig8",
    "fig9": "repro.exp.fig9",
    "fig10": "repro.exp.fig10",
    "fig11": "repro.exp.fig11",
    "fig12": "repro.exp.fig12",
    "fig13": "repro.exp.fig13",
    "fig14": "repro.exp.fig14",
    "appendix": "repro.exp.appendix",
    "degradation": "repro.exp.degradation",
    "hybrid": "repro.exp.hybrid",
    "incast": "repro.exp.incast",
    "ablation": "repro.exp.ablation",
    "adaptive": "repro.exp.adaptive_routing",
    "control": "repro.exp.control",
    "expanders": "repro.exp.expander_families",
    "queues": "repro.exp.queue_sensitivity",
    "workloads": "repro.exp.workloads",
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="P-Net (CoNEXT'22) reproduction experiments",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all", "list"],
        help=(
            "experiment to run ('all' for everything, 'list' to enumerate; "
            "see also 'cache [stats|prune|clear]' for the artifact cache "
            "and 'obs summarize FILE' for telemetry files)"
        ),
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default=None,
        help="override PNET_SCALE (default: env or 'small')",
    )
    parser.add_argument(
        "--csv",
        metavar="DIR",
        default=None,
        help="also write flattened results as CSV into DIR",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        metavar="N",
        default=None,
        help="override PNET_JOBS (worker processes for trial grids)",
    )
    parser.add_argument(
        "--fidelity",
        choices=["packet", "fluid", "hybrid"],
        default=None,
        help="restrict the hybrid experiment to one engine",
    )
    parser.add_argument(
        "--promote",
        metavar="POLICY",
        default=None,
        help=(
            "promotion policy for hybrid runs (e.g. 'sampled:0.1:0', "
            "'tagged:probe+0.05', or a bare probability)"
        ),
    )
    parser.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="attach telemetry and write the metric snapshot (JSONL) here",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="attach an event tracer and write trace events (JSONL) here",
    )
    return parser


def resolve_config(parser: argparse.ArgumentParser, **given) -> RunConfig:
    """The run config: ``given`` flags over the environment.  A bad
    value exits 2 through ``parser.error``, naming it."""
    try:
        return RunConfig.from_env(**given)
    except ConfigError as exc:
        parser.error(str(exc))


def run_one(
    name: str, csv_dir: Optional[str], knobs: Dict[str, Any]
) -> None:
    """Run one experiment under the current config; ``knobs`` go to its
    ``main``, whose returned result ``--csv`` writes.  The runner's stats
    line is printed only when this experiment ran trials."""
    from repro.exp.runner import last_stats

    module = importlib.import_module(EXPERIMENTS[name])
    started = time.time()
    before = last_stats()
    result = module.main(**knobs)
    if csv_dir is not None:
        from repro.exp.export import write_csv

        if name == "table1":
            # table1 is scale-independent (its parameters are the
            # paper's exemplar) and returns a list of ComponentCount
            # dataclasses.
            rows = sum(
                write_csv(
                    pathlib.Path(csv_dir) / f"{name}_{r.architecture}.csv",
                    r,
                )
                for r in result
            )
        else:
            rows = write_csv(pathlib.Path(csv_dir) / f"{name}.csv", result)
        print(f"[{name}] wrote {rows} CSV rows to {csv_dir}/")
    stats = last_stats()
    if stats is not before:
        print(f"[{name}] {stats.summary()}")
    print(f"[{name}] done in {time.time() - started:.1f}s\n")


def cache_subcommand(argv: List[str]) -> int:
    """``python -m repro cache [stats|prune|clear] [...]``"""
    parser = argparse.ArgumentParser(
        prog="python -m repro cache",
        description="artifact-cache maintenance",
    )
    parser.add_argument("action", choices=["stats", "prune", "clear"])
    parser.add_argument(
        "--max-bytes", type=int, metavar="BYTES", default=None,
        help="with 'prune': evict oldest entries until at most this many "
        "bytes remain",
    )
    args = parser.parse_args(argv)
    from repro.exp.cache import get_cache

    with use(resolve_config(parser)):
        cache = get_cache()
    if args.action == "clear":
        stats = cache.disk_stats()
        cache.clear()
        print(
            f"cleared {stats['entries']} entries "
            f"({stats['bytes'] / 1e6:.1f} MB) from {stats['root']}"
        )
        return 0
    if args.action == "prune":
        if args.max_bytes is None:
            parser.error("prune requires --max-bytes")
        removed, freed = cache.prune(args.max_bytes)
        print(
            f"pruned {removed} entries ({freed / 1e6:.1f} MB) "
            f"from {cache.root}"
        )
        return 0
    stats = cache.disk_stats()
    print(f"cache dir: {stats['root']}"
          + ("" if cache.enabled else "  (disabled: PNET_CACHE=0)"))
    print(f"entries:   {stats['entries']}")
    print(f"size:      {stats['bytes'] / 1e6:.1f} MB")
    for kind, bucket in stats["kinds"].items():
        print(
            f"  {kind:<10} {bucket['entries']:>6} entries  "
            f"{bucket['bytes'] / 1e6:>8.1f} MB"
        )
    return 0


def ckpt_command(argv: List[str]) -> int:
    """``python -m repro ckpt save|restore|inspect|verify|list|prune``

    ``save`` runs the degradation scenario writing simulator
    checkpoints; ``restore`` finishes it from the newest one with
    output identical to an uninterrupted run -- a zero-code
    demonstration of the checkpoint contract.  ``inspect``/``verify``/
    ``list``/``prune`` operate on any :mod:`repro.ckpt` container
    (simulator or shard-engine checkpoints alike).
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro ckpt",
        description="deterministic simulation checkpoints",
    )
    sub = parser.add_subparsers(dest="action", required=True)

    save = sub.add_parser("save", help="run the degradation scenario, "
                          "checkpointing as it goes")
    save.add_argument("root", metavar="DIR")
    save.add_argument("--scale", choices=SCALES, default=None)
    save.add_argument("--chaos-seed", type=int, default=7, metavar="N")
    save.add_argument(
        "--every", type=float, default=None, metavar="SECONDS",
        help="checkpoint interval in simulated seconds "
        "(default: duration / 5)",
    )
    save.add_argument(
        "--stop-after", type=float, default=None, metavar="SECONDS",
        help="abandon the run at this simulated time (simulates "
        "preemption; 'restore' then finishes it)",
    )

    rest = sub.add_parser("restore", help="finish a checkpointed run "
                          "from its newest valid snapshot")
    rest.add_argument("root", metavar="DIR")

    insp = sub.add_parser("inspect", help="print a checkpoint's manifest "
                          "summary (a root: its newest valid one)")
    insp.add_argument("paths", nargs="+", metavar="PATH")

    ver = sub.add_parser("verify", help="verify payload hashes (a root: "
                         "every checkpoint under it); exit nonzero on "
                         "any corrupt/partial checkpoint")
    ver.add_argument("paths", nargs="+", metavar="PATH")

    lst = sub.add_parser("list", help="list checkpoints under a root")
    lst.add_argument("root", metavar="DIR")

    prn = sub.add_parser("prune", help="drop all but the newest N valid "
                         "checkpoints (invalid ones always go); the one "
                         "retention tool")
    prn.add_argument("root", metavar="DIR")
    prn.add_argument("--keep-last", type=int, required=True, metavar="N")

    parser.set_defaults(scale=None)
    args = parser.parse_args(argv)
    if args.action == "prune" and args.keep_last < 1:
        parser.error(f"--keep-last must be >= 1, got {args.keep_last}")
    config = resolve_config(parser, scale=args.scale)
    import json

    from repro import ckpt

    if args.action == "save":
        from repro.exp.degradation import PRESETS, run_faulted

        params = dict(PRESETS[config.scale])
        duration = params["duration"]
        every = args.every if args.every is not None else duration / 5
        if not every > 0:
            parser.error(f"--every must be > 0, got {args.every}")
        if args.stop_after is not None and not args.stop_after > every:
            # The first checkpoint is taken after ``every``: stopping at
            # or before it leaves nothing for 'restore' to finish.
            parser.error(
                f"--stop-after must be past the first checkpoint at "
                f"t={every}, got {args.stop_after}"
            )
        out = run_faulted(
            k=params["k"],
            n_planes=params["n_planes"],
            chaos_seed=args.chaos_seed,
            outage_at=params["outage_at"],
            outage=params["outage"],
            duration=duration,
            sample_period=params["sample_period"],
            checkpoint_dir=args.root,
            checkpoint_every=every,
            stop_after=args.stop_after,
        )
        written = ckpt.list_checkpoints(args.root)
        ran_to = (
            duration if args.stop_after is None
            else min(duration, args.stop_after)
        )
        print(
            f"[ckpt] {len(written)} checkpoint(s) under {args.root} "
            f"(ran to t={ran_to}, every={every})"
        )
        if ran_to == duration:
            print(f"[ckpt] final fraction "
                  f"{out['stats']['final_fraction']:.3f}")
        else:
            print("[ckpt] run abandoned; 'repro ckpt restore "
                  f"{args.root}' finishes it")
        return 0

    if args.action == "restore":
        from repro.exp.degradation import resume_faulted

        out = resume_faulted(args.root)
        print("t (s)    normalised throughput")
        for t, fraction in out["samples"]:
            print(f"{t:>7.3f}  {fraction:.3f}")
        stats = out["stats"]
        print(
            f"[ckpt] resumed run complete: "
            f"min={stats['min_fraction']:.3f} "
            f"final={stats['final_fraction']:.3f} "
            f"resteered={int(stats['flows_resteered'])}"
        )
        return 0

    if args.action == "inspect":
        # A checkpoint root shows its newest valid checkpoint.
        failed = 0
        for path in args.paths:
            try:
                summary = ckpt.inspect(ckpt.resolve(path))
                print(json.dumps(summary, indent=2, sort_keys=True))
            except ckpt.CheckpointError as exc:
                print(f"{path}: FAILED -- {exc}")
                failed += 1
        return 1 if failed else 0

    if args.action == "verify":
        # A checkpoint root verifies every checkpoint under it, so one
        # corrupt snapshot fails even next to a valid one.
        failed = 0
        for path in args.paths:
            for chosen in ckpt.list_checkpoints(path) or [path]:
                try:
                    ckpt.verify(chosen)
                    print(f"{chosen}: OK")
                except ckpt.CheckpointError as exc:
                    print(f"{chosen}: FAILED -- {exc}")
                    failed += 1
        return 1 if failed else 0

    if args.action == "list":
        entries = ckpt.list_checkpoints(args.root)
        if not entries:
            print(f"no checkpoints under {args.root}")
            return 0
        for path in entries:
            try:
                meta = ckpt.verify(path).get("meta", {})
                print(
                    f"{path.name}  kind={meta.get('kind', '?'):<6} "
                    f"t={meta.get('t', '?')}  valid"
                )
            except ckpt.CheckpointError as exc:
                print(f"{path.name}  INVALID -- {exc}")
        return 0

    removed = ckpt.prune(args.root, args.keep_last)
    print(f"pruned {len(removed)} checkpoint(s) from {args.root}")
    return 0


def obs_command(argv: List[str]) -> int:
    """``python -m repro obs summarize FILE [FILE ...]``"""
    parser = argparse.ArgumentParser(
        prog="python -m repro obs",
        description="inspect exported telemetry (JSONL metric/trace files)",
    )
    parser.add_argument("action", choices=["summarize"])
    parser.add_argument("files", nargs="+", metavar="FILE")
    args = parser.parse_args(argv)
    from repro.obs import summarize_files

    print(summarize_files(args.files))
    return 0


def faults_command(argv: List[str]) -> int:
    """``python -m repro faults run [--schedule FILE] [--chaos-seed N]``

    Runs the plane-outage degradation scenario (or an explicit schedule
    file) on the fluid simulator and prints the normalised-throughput
    curve.  ``--schedule-out`` writes the canonical schedule JSON (the
    replay artifact); ``--metrics-out`` writes the telemetry snapshot.
    """
    parser = argparse.ArgumentParser(
        prog="python -m repro faults",
        description="deterministic fault-injection runs",
    )
    parser.add_argument("action", choices=["run"])
    parser.add_argument(
        "--schedule", metavar="FILE", default=None,
        help="fault schedule JSON to replay (default: generated plane "
        "outage from --chaos-seed)",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=7, metavar="N",
        help="seed for the generated schedule (default 7)",
    )
    parser.add_argument("--scale", choices=SCALES, default=None)
    parser.add_argument(
        "--schedule-out", metavar="FILE", default=None,
        help="write the executed schedule (canonical JSON) here",
    )
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="write the metric snapshot (JSONL) here",
    )
    args = parser.parse_args(argv)
    config = resolve_config(parser, scale=args.scale)

    from repro.ckpt.rng import RngBundle
    from repro.core.pnet import PNet
    from repro.exp.degradation import PRESETS, run_faulted
    from repro.faults import FaultSchedule, plane_outage
    from repro.topology.fattree import build_fat_tree
    from repro.topology.parallel import ParallelTopology

    params = dict(PRESETS[config.scale])
    # A throwaway copy of the trial's network, so the run itself starts
    # from pristine state: a schedule file is checked against it, and a
    # generated schedule drawn on it.
    pnet = PNet(ParallelTopology.homogeneous(
        lambda: build_fat_tree(params["k"]), params["n_planes"]
    ))
    if args.schedule is not None:
        try:
            schedule = FaultSchedule.from_file(args.schedule)
            schedule.validate(pnet)
        except (OSError, ValueError) as exc:
            parser.error(f"--schedule {args.schedule}: {exc}")
    else:
        # The chaos stream lives in an RngBundle (checkpointable
        # position) seeded explicitly so the schedule matches the
        # historic random.Random sequence.
        schedule = plane_outage(
            pnet,
            RngBundle(args.chaos_seed).stream(
                "faults.chaos", seed=args.chaos_seed
            ),
            at=params["outage_at"], outage=params["outage"],
        )
    if args.schedule_out is not None:
        schedule.to_file(args.schedule_out)
        print(f"[faults] wrote schedule to {args.schedule_out}")

    registry = None
    if args.metrics_out is not None:
        from repro.api import attach_telemetry

        registry = attach_telemetry(metrics_path=args.metrics_out)
    try:
        out = run_faulted(
            k=params["k"],
            n_planes=params["n_planes"],
            chaos_seed=args.chaos_seed,
            outage_at=params["outage_at"],
            outage=params["outage"],
            duration=params["duration"],
            sample_period=params["sample_period"],
            schedule=schedule,
            obs=registry,
        )
    finally:
        if registry is not None:
            from repro.obs import set_registry

            registry.close()
            set_registry(None)
            print(f"[obs] wrote metric snapshot to {args.metrics_out}")
    print("t (s)    normalised throughput")
    for t, fraction in out["samples"]:
        print(f"{t:>7.3f}  {fraction:.3f}")
    stats = out["stats"]
    print(
        f"[faults] events={int(stats['events_applied'])} "
        f"resteered={int(stats['flows_resteered'])} "
        f"stranded={int(stats['flows_stranded'])} "
        f"min={stats['min_fraction']:.3f} "
        f"final={stats['final_fraction']:.3f} "
        f"surviving_capacity={stats['surviving_capacity_end']:.6f}"
    )
    return 0


def workloads_command(argv: List[str]) -> int:
    """``python -m repro workloads [--scenario NAME] [--tenants N] ...``

    The production-workload experiment with its scenario knobs exposed
    directly as :func:`repro.exp.workloads.run` arguments (so
    ``python -m repro all`` still runs the same module with defaults).
    """
    from repro.exp.workloads import DEFAULT_ENGINES
    from repro.workloads import WorkloadError

    parser = argparse.ArgumentParser(
        prog="python -m repro workloads",
        description="production workload scenarios on the comparison "
        "networks (incast, coflow, allreduce, diurnal)",
    )
    parser.add_argument(
        "--scenario", choices=list(DEFAULT_ENGINES), default=None,
        help="run one scenario family only",
    )
    parser.add_argument(
        "--tenants", type=int, metavar="N", default=None,
        help="diurnal mix tenant count",
    )
    parser.add_argument(
        "--load", type=float, metavar="FRACTION", default=None,
        help="diurnal mix offered load in (0, 1]",
    )
    parser.add_argument(
        "--engine", choices=["packet", "fluid", "hybrid"], default=None,
        help="engine to run scenarios on (default: per scenario)",
    )
    parser.add_argument("--scale", choices=SCALES, default=None)
    parser.add_argument(
        "--csv", metavar="DIR", default=None,
        help="also write flattened results as CSV into DIR",
    )
    parser.add_argument(
        "--jobs", type=int, metavar="N", default=None,
        help="override PNET_JOBS (worker processes for the trial grid)",
    )
    args = parser.parse_args(argv)
    config = resolve_config(parser, scale=args.scale, jobs=args.jobs)
    knobs = dict(scenario=args.scenario, tenants=args.tenants,
                 load=args.load, engine=args.engine)
    with use(config):
        try:
            run_one("workloads", args.csv, knobs)
        except WorkloadError as exc:
            parser.error(str(exc))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "workloads" and len(argv) > 1:
        # Bare `workloads` keeps the uniform experiment route (so it
        # composes with --metrics-out etc.); any argument engages the
        # scenario-knob parser.
        return workloads_command(argv[1:])
    if argv and argv[0] == "obs":
        return obs_command(argv[1:])
    if argv and argv[0] == "faults":
        return faults_command(argv[1:])
    if argv and argv[0] == "ckpt":
        return ckpt_command(argv[1:])
    if argv and argv[0] == "farm":
        from repro.farm.cli import main as farm_main

        return farm_main(argv[1:])
    if argv and argv[0] == "cache":
        # `cache` and `cache --clear` spell `cache stats` and `cache clear`.
        historic = {(): ["stats"], ("--clear",): ["clear"]}
        return cache_subcommand(historic.get(tuple(argv[1:]), argv[1:]))
    parser = build_parser()
    args = parser.parse_args(argv)
    config = resolve_config(parser, scale=args.scale, jobs=args.jobs)
    hybrid_knobs = {"fidelity": args.fidelity, "promote": args.promote}
    if (args.fidelity, args.promote) != (None, None) and (
        args.experiment not in ("hybrid", "all")
    ):
        parser.error(
            "--fidelity and --promote apply to the hybrid experiment only"
        )
    if args.promote is not None:
        from repro.hybrid.promotion import resolve_policy

        try:
            resolve_policy(args.promote)
        except ValueError as exc:
            parser.error(f"--promote {args.promote!r}: {exc}")
    if args.experiment == "list":
        for name, module in sorted(EXPERIMENTS.items()):
            print(f"{name:<10} {module}")
        return 0
    registry = None
    if args.metrics_out is not None or args.trace is not None:
        from repro.api import attach_telemetry

        registry = attach_telemetry(
            trace=args.trace is not None,
            metrics_path=args.metrics_out,
            trace_path=args.trace,
        )
    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    try:
        with use(config):
            for name in names:
                run_one(
                    name, args.csv, hybrid_knobs if name == "hybrid" else {}
                )
    finally:
        if registry is not None:
            from repro.obs import set_registry

            registry.close()
            set_registry(None)
            if args.metrics_out is not None:
                print(f"[obs] wrote metric snapshot to {args.metrics_out}")
            if args.trace is not None:
                print(f"[obs] wrote trace events to {args.trace}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
