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

The trial cache is also a sweep's only record of its finished trials:
every trial's result is stored as it completes (by the pool worker, the
serial loop, or the dispatcher for a farm result), so a rerun of a
killed sweep on the same ``PNET_CACHE_DIR`` computes only what is
missing, and a superset sweep reuses a subset's trials.

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
import os
import pickle
import select
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

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
    wall_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    trial_cache_hits: int = 0
    #: Farm workers the run dispatched over (0 = no farm).
    farm_workers: int = 0
    #: Trials re-queued after their farm worker was lost mid-flight
    #: (each recomputed on another worker).
    reassigned_trials: int = 0

    def summary(self) -> str:
        text = (
            f"{self.n_trials} trials, jobs={self.jobs}, "
            f"wall={self.wall_seconds:.2f}s, cache {self.cache_hits} hits / "
            f"{self.cache_misses} misses "
            f"({self.trial_cache_hits} whole-trial hits)"
        )
        if self.farm_workers:
            text += (
                f", farm={self.farm_workers} workers "
                f"({self.reassigned_trials} reassigned)"
            )
        return text

    @property
    def trial_workers(self) -> int:
        """Pool workers the run may use: ``jobs`` (benchmarks report it
        as ``exp.workers``)."""
        return self.jobs


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


@functools.lru_cache(maxsize=None)
def _code_hash(module_name: str) -> str:
    """Hash of a trial module outside the ``repro`` package ("" inside
    it).  Every cache entry is keyed by the package source already
    (:func:`repro.exp.cache.content_hash`); this adds the one module a
    trial can run that the package hash cannot see."""
    if module_name.partition(".")[0] == "repro":
        return ""
    module = importlib.import_module(module_name)
    try:
        source = inspect.getsource(module)
    except (OSError, TypeError):
        source = "nosource"
    return hashlib.sha256(source.encode()).hexdigest()


def _trial_cache_key(spec: TrialSpec) -> Tuple:
    """The whole-trial cache key: function, outside-module hash and
    kwargs (the cache adds the package hash).  No run config field
    changes a result, so none is part of it."""
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


def _exit_with(runner: int) -> None:
    """Pool-worker initializer: end this worker when the runner exits.

    A pool worker blocks on the pool's call queue, whose write end it
    inherited, so the runner's death -- SIGKILL included -- never reads
    as EOF there.  A daemon thread blocks on a pidfd of the runner
    instead and ends the worker once the runner is gone.  ``runner`` is
    the pid the runner passed: read here, it could already be init's.
    Without pidfds (not Linux, or Linux before 5.3) the worker does not
    watch.
    """
    try:
        pidfd = os.pidfd_open(runner)
    except ProcessLookupError:
        os._exit(1)
    except (AttributeError, OSError):  # pragma: no cover - no pidfds
        return
    if os.getppid() != runner:  # a new process has the runner's pid
        os._exit(1)
    threading.Thread(
        target=_exit_when_readable, args=(pidfd,), daemon=True,
    ).start()


def _exit_when_readable(fd: int) -> None:
    select.select([fd], [], [])
    os._exit(1)


def run_trials(
    specs: Sequence[TrialSpec],
    jobs: Optional[int] = None,
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

    A trial the artifact cache already holds is not run again (a
    ``trial_cache_hits`` hit), so rerunning a killed sweep on the same
    cache resumes it.  Its entries are keyed by the code that produced
    them, so a rerun after a code edit recomputes.

    ``farm`` (default ``$PNET_FARM_INVENTORY``; unset = no farm)
    dispatches pending trials across a run farm instead of the local
    pool: an :class:`~repro.farm.inventory.Inventory`, a sequence of
    :class:`~repro.farm.inventory.HostSpec`, or an inventory file path.
    Workers lost mid-trial (crash, SIGKILL, ssh drop, heartbeat timeout
    ``farm_timeout`` / ``$PNET_FARM_TIMEOUT``) have their trial
    reassigned and recomputed, and the merged result is byte-identical
    to a single-host run of the same specs.  A host running other code
    is refused.  Every farm result lands in this process's cache,
    whatever the hosts' caches do.
    """
    _check_specs(specs)
    config = current(
        jobs=jobs, farm_inventory=farm, farm_timeout=farm_timeout,
    )
    with use(config):
        return _run_trials(specs, config)


def _run_trials(specs: Sequence[TrialSpec], config: RunConfig):
    global _last_stats
    stats = RunStats(n_trials=len(specs), jobs=config.jobs)
    started = time.perf_counter()
    cache = _cache.get_cache()
    parent_hits0, parent_misses0 = cache.hits, cache.misses
    results: Dict[Tuple, Any] = {}

    # Anything already computed (by any prior run, killed or not, or
    # any other process) never reaches the pool.
    pending: List[TrialSpec] = []
    for spec in specs:
        value = cache.get("trial", _trial_cache_key(spec), _MISS)
        if value is _MISS:
            pending.append(spec)
        else:
            results[spec.key] = value
            stats.trial_cache_hits += 1

    from repro.farm.inventory import resolve_inventory

    inventory = resolve_inventory(config.farm_inventory)
    if inventory is not None and pending:
        from repro.farm.dispatch import run_on_farm

        by_key = {spec.key: spec for spec in pending}

        def _completed(key: Tuple, value: Any) -> None:
            # This process's cache records every farm result, so a
            # killed farm sweep resumes here whatever the hosts cache.
            results[key] = value
            cache.put("trial", _trial_cache_key(by_key[key]), value)

        farm_results, farm_stats = run_on_farm(
            pending, inventory, on_complete=_completed,
        )
        assert len(farm_results) == len(pending)
        stats.farm_workers = farm_stats.n_workers
        stats.reassigned_trials = farm_stats.reassigned
    elif config.jobs == 1 or len(pending) <= 1:
        for spec in pending:
            key, value, __, __ = _execute(spec, config)
            # Round-trip so the serial path yields the same object graph
            # a pool worker's unpickled result would: without this,
            # in-process results can share interned objects across
            # trials and their combined pickle differs by job count.
            results[key] = pickle.loads(pickle.dumps(value))
    else:
        from concurrent.futures import ProcessPoolExecutor, as_completed

        # Executor workers are not daemonic, so a sharded trial may
        # start its shard worker processes inside one.
        with ProcessPoolExecutor(
            max_workers=min(config.jobs, len(pending)),
            mp_context=_pool_context(),
            initializer=_exit_with, initargs=(os.getpid(),),
        ) as pool:
            futures = [pool.submit(_execute, spec, config) for spec in pending]
            try:
                for future in as_completed(futures):
                    key, value, hits, misses = future.result()
                    results[key] = value
                    stats.cache_hits += hits
                    stats.cache_misses += misses
            except BaseException:
                # Drop the trials not yet started, so a failing sweep
                # stops once the running ones return.
                pool.shutdown(cancel_futures=True)
                raise

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
