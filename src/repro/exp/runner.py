"""Process-pool experiment runner over picklable trial specs.

Every experiment module expresses its parameter grid -- network family x
scale x plane count x seed -- as a list of :class:`TrialSpec` and hands it
to :func:`run_trials`.  The runner fans the trials out over a
process pool (``PNET_JOBS``; 1 = today's serial in-process path,
exactly), consults the on-disk artifact cache for whole trial
results, and merges everything **by trial key, never by completion
order** -- the :class:`~repro.sim.events.EventLoop` and every topology
builder are deterministic given their seeds, so results are independent
of worker scheduling, and ``tests/test_determinism.py`` locks that in.

A trial function must be a module-level callable (referenced as
``"package.module:function"`` so it pickles by name) taking only
picklable keyword arguments and returning picklable data; it must not
depend on process-global mutable state.  Every trial runs inside
:func:`repro.config.use` of the run's one resolved
:class:`~repro.config.RunConfig`, in-process, in a pool worker or on a
farm host alike.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import multiprocessing
import pathlib
import pickle
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.ckpt.store import (
    KIND_FARM,
    KIND_SWEEP,
    load_progress,
    write_progress,
)
from repro.config import RunConfig, current, use
from repro.exp import cache as _cache
from repro.obs import get_registry

_MISS = object()


@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of experiment work.

    Attributes:
        fn: dotted reference ``"repro.exp.fig6:ecmp_trial"`` to a
            module-level trial function.
        key: hashable identifier, unique within one :func:`run_trials`
            call; results are merged and ordered by it.
        kwargs: picklable keyword arguments for the trial function.
    """

    fn: str
    key: Tuple
    kwargs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class RunStats:
    """What one :func:`run_trials` call cost.

    ``cache_hits``/``cache_misses`` aggregate the artifact cache counters
    across the parent and every worker (trial results, route sets, and
    LP solutions all count).
    """

    n_trials: int = 0
    jobs: int = 1
    #: Pool workers the run may use: ``jobs`` (benchmarks report it as
    #: ``exp.workers``).
    trial_workers: int = 1
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    trial_cache_hits: int = 0
    #: Trials skipped because a sweep checkpoint already held their
    #: result (``--resume`` / ``PNET_RESUME``).
    resumed_trials: int = 0
    #: Sweep-progress checkpoints written this run.
    checkpoints_written: int = 0
    #: Farm workers the run dispatched over (0 = no farm).
    farm_workers: int = 0
    #: Trials re-queued after their farm worker was lost mid-flight.
    reassigned_trials: int = 0
    #: Reassigned trials that resumed on another worker from their last
    #: per-trial checkpoint step instead of recomputing.
    resumed_elsewhere: int = 0

    def summary(self) -> str:
        text = (
            f"{self.n_trials} trials, jobs={self.jobs}, "
            f"wall={self.wall_seconds:.2f}s, cache {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"({self.trial_cache_hits} whole-trial hits)"
        )
        if self.resumed_trials or self.checkpoints_written:
            text += (
                f", {self.resumed_trials} resumed / "
                f"{self.checkpoints_written} checkpoints"
            )
        if self.farm_workers:
            text += (
                f", farm={self.farm_workers} workers "
                f"({self.reassigned_trials} reassigned / "
                f"{self.resumed_elsewhere} resumed elsewhere)"
            )
        return text


#: Stats of the most recent run_trials call in this process (for CLI and
#: benchmark reporting).
_last_stats: Optional[RunStats] = None


def last_stats() -> Optional[RunStats]:
    return _last_stats


def resolve_fn(ref: str) -> Callable:
    """Import ``"package.module:function"`` and return the callable."""
    module_name, sep, fn_name = ref.partition(":")
    if not sep or not fn_name:
        raise ValueError(
            f"trial fn must look like 'package.module:function', got {ref!r}"
        )
    module = importlib.import_module(module_name)
    fn = getattr(module, fn_name, None)
    if not callable(fn):
        raise ValueError(f"{ref!r} does not name a callable")
    return fn


#: Root of the ``repro`` package source tree.
_PACKAGE_ROOT = pathlib.Path(__file__).resolve().parent.parent


@functools.lru_cache(maxsize=None)
def _source_tree_hash(root: pathlib.Path) -> str:
    """Hash of every ``.py`` file under ``root``: relative path plus
    bytes, in sorted order."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        data = path.read_bytes()
        name = path.relative_to(root).as_posix().encode()
        digest.update(b"%d:%s%d:" % (len(name), name, len(data)))
        digest.update(data)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def _code_hash(module_name: str) -> str:
    """Hash of the code a trial can run, so trial-result cache entries
    die when any of it changes: the whole ``repro`` package, plus the
    trial's own module when it lives outside the package."""
    package = _source_tree_hash(_PACKAGE_ROOT)
    if module_name.partition(".")[0] == "repro":
        return package
    module = importlib.import_module(module_name)
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        source = "nosource"
    return hashlib.sha256((package + source).encode()).hexdigest()


def _trial_cache_key(spec: TrialSpec) -> Tuple:
    """The whole-trial cache key: function, code hash and kwargs.  No
    run config field changes a result, so none is part of it."""
    return (spec.fn, _code_hash(spec.fn.partition(":")[0]), spec.kwargs)


def _execute(spec: TrialSpec, config: RunConfig) -> tuple:
    """Run one trial under ``config``; returns (key, value, hits, misses).

    The hit/miss counts are this trial's *delta* on the artifact cache,
    so the parent can aggregate across forked workers whose counters
    start from a copy of the parent's.
    """
    with use(config):
        cache = _cache.get_cache()
        hits0, misses0 = cache.hits, cache.misses
        value = resolve_fn(spec.fn)(**spec.kwargs)
        cache.put("trial", _trial_cache_key(spec), value)
    return (
        spec.key,
        value,
        cache.hits - hits0,
        cache.misses - misses0,
    )


def _check_specs(specs: Sequence[TrialSpec]) -> None:
    seen = set()
    for spec in specs:
        if spec.key in seen:
            raise ValueError(f"duplicate trial key {spec.key!r}")
        seen.add(spec.key)


def _pool_context():
    """Fork where available (cheap, Linux); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


# --- sweep checkpoints ------------------------------------------------------
#
# A preemptible sweep writes its accumulated {trial content hash ->
# result} map every N completions; a resumed run loads the newest valid
# checkpoint and skips every trial whose hash is present.  Hashes are
# the same content keys the artifact cache uses (code hash included), so
# a checkpoint can never resurrect results from changed code, and
# checkpoints written by one sweep are usable by any superset sweep.


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
    checkpoint_dir=None,
    checkpoint_every: Optional[int] = None,
    resume: Optional[bool] = None,
    checkpoint_keep_last: Optional[int] = None,
    farm=None,
    farm_timeout: Optional[float] = None,
) -> Dict[Tuple, Any]:
    """Run every trial and return ``{spec.key: result}`` in spec order.

    The run resolves one :class:`~repro.config.RunConfig` at entry --
    the current one, with these arguments put in -- and every trial
    runs under it, in-process, in a pool worker or on a farm host.  A
    bad knob fails here, before any trial runs.

    ``jobs`` defaults to ``$PNET_JOBS`` (1 = serial, in-process).  The
    returned mapping's iteration order is the order of ``specs``
    regardless of which worker finished first, and the values are
    identical across job counts; per-run cost is recorded in
    :func:`last_stats`.

    Sweep checkpointing (``checkpoint_dir`` / ``checkpoint_every`` /
    ``resume`` / ``checkpoint_keep_last``, by default ``PNET_CKPT_DIR``
    / ``PNET_CKPT_EVERY`` / ``PNET_RESUME`` / ``PNET_CKPT_KEEP``): with
    a checkpoint dir and interval, the run writes crash-consistent
    progress snapshots every ``checkpoint_every`` completed trials plus
    one at the end; with ``resume``, trials whose results a prior
    (possibly killed) run already checkpointed are skipped.  The
    interval and ``resume`` need a dir, and retention needs the
    interval.  Results are keyed by the same content hash as the
    artifact cache, so resumed values are exactly the values an
    uninterrupted run would have produced.

    ``farm`` (default ``$PNET_FARM_INVENTORY``; unset = no farm)
    dispatches pending trials across a run farm instead of the local
    pool: an :class:`~repro.farm.inventory.Inventory`, a sequence of
    :class:`~repro.farm.inventory.HostSpec`, or an inventory file path.
    Workers lost mid-trial (crash, SIGKILL, ssh drop, heartbeat timeout
    ``farm_timeout`` / ``$PNET_FARM_TIMEOUT``) have their trial
    reassigned -- resuming from its last per-trial checkpoint when the
    trial function checkpoints -- and the merged result is
    byte-identical to a single-host run of the same specs.
    """
    _check_specs(specs)
    config = current(
        jobs=jobs,
        ckpt_dir=checkpoint_dir,
        ckpt_every=checkpoint_every,
        resume=resume,
        ckpt_keep=checkpoint_keep_last,
        farm_inventory=farm,
        farm_timeout=farm_timeout,
    )
    with use(config):
        return _run_trials(specs, config)


def _run_trials(specs: Sequence[TrialSpec], config: RunConfig):
    global _last_stats
    checkpoint_dir = config.ckpt_dir
    checkpoint_every = config.ckpt_every
    stats = RunStats(
        n_trials=len(specs), jobs=config.jobs, trial_workers=config.jobs,
    )
    started = time.perf_counter()
    cache = _cache.get_cache()
    parent_hits0, parent_misses0 = cache.hits, cache.misses
    results: Dict[Tuple, Any] = {}

    # Resume state first, then the whole-trial cache: anything already
    # computed (by a prior possibly-killed sweep, any prior run, or any
    # other process) never reaches the pool.
    trial_key = {spec.key: _trial_cache_key(spec) for spec in specs}
    content_hash = {
        key: _cache.stable_hash(value) for key, value in trial_key.items()
    }
    done: Dict[str, Any] = (
        load_progress(checkpoint_dir) if config.resume else {}
    )
    pending: List[TrialSpec] = []
    for spec in specs:
        if content_hash[spec.key] in done:
            results[spec.key] = done[content_hash[spec.key]]
            stats.resumed_trials += 1
            continue
        value = cache.get("trial", trial_key[spec.key], _MISS)
        if value is _MISS:
            pending.append(spec)
        else:
            results[spec.key] = value
            stats.trial_cache_hits += 1
            done[content_hash[spec.key]] = value

    from repro.farm.inventory import resolve_inventory

    inventory = resolve_inventory(config.farm_inventory)
    progress_kind = KIND_SWEEP if inventory is None else KIND_FARM
    fresh = 0

    def _completed(key: Tuple, value: Any) -> None:
        nonlocal fresh
        results[key] = value
        done[content_hash[key]] = value
        fresh += 1
        if (
            checkpoint_every is not None
            and fresh % checkpoint_every == 0
        ):
            write_progress(
                checkpoint_dir, done, len(specs), config.ckpt_keep,
                kind=progress_kind,
            )
            stats.checkpoints_written += 1

    if inventory is not None and pending:
        from repro.farm.dispatch import run_on_farm

        farm_results, farm_stats = run_on_farm(
            pending,
            inventory,
            trial_checkpoint_root=(
                checkpoint_dir / "trials"
                if checkpoint_dir is not None else None
            ),
            content_hash={
                spec.key: content_hash[spec.key] for spec in pending
            },
            on_complete=lambda key, value, __: _completed(key, value),
        )
        assert len(farm_results) == len(pending)
        stats.farm_workers = farm_stats.n_workers
        stats.reassigned_trials = farm_stats.reassigned
        stats.resumed_elsewhere = farm_stats.resumed_elsewhere
    elif config.jobs == 1 or len(pending) <= 1:
        for spec in pending:
            key, value, __, __ = _execute(spec, config)
            # Round-trip so the serial path yields the same object graph
            # a pool worker's unpickled result would: without this,
            # in-process results can share interned objects across
            # trials and their combined pickle differs by job count.
            _completed(key, pickle.loads(pickle.dumps(value)))
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Executor workers are not daemonic, so a sharded trial may
        # start its shard worker processes inside one.
        with ProcessPoolExecutor(
            max_workers=min(config.jobs, len(pending)),
            mp_context=_pool_context(),
        ) as pool:
            futures = [pool.submit(_execute, spec, config) for spec in pending]
            try:
                for future in as_completed(futures):
                    key, value, hits, misses = future.result()
                    _completed(key, value)
                    stats.cache_hits += hits
                    stats.cache_misses += misses
            except BaseException:
                # Drop the trials not yet started, so a failing sweep
                # stops once the running ones return.
                pool.shutdown(cancel_futures=True)
                raise

    if checkpoint_every is not None and fresh % checkpoint_every != 0:
        # Final partial interval: a completed sweep's checkpoint lets a
        # superset sweep resume from everything computed here.
        write_progress(
            checkpoint_dir, done, len(specs), config.ckpt_keep,
            kind=progress_kind,
        )
        stats.checkpoints_written += 1

    # Parent-side delta (trial-cache probes, and serial-path artifact
    # traffic); worker deltas were added as results streamed in.
    stats.cache_hits += cache.hits - parent_hits0
    stats.cache_misses += cache.misses - parent_misses0
    stats.wall_seconds = time.perf_counter() - started
    _last_stats = stats
    obs = get_registry()
    if obs.enabled:
        obs.counter("runner.trials").inc(stats.n_trials)
        obs.counter("runner.trial_cache_hits").inc(stats.trial_cache_hits)
        obs.counter("runner.artifact_cache_hits").inc(stats.cache_hits)
        obs.counter("runner.artifact_cache_misses").inc(stats.cache_misses)
        obs.histogram("runner.run_seconds", wallclock=True).observe(
            stats.wall_seconds
        )
    return {spec.key: results[spec.key] for spec in specs}
