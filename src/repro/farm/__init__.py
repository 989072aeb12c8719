"""repro.farm -- multi-host run-farm orchestration.

Scale a trial sweep past one machine the way FireSim's manager scales
FPGA simulations past one box: a declarative host *inventory*
(:mod:`~repro.farm.inventory`), pluggable worker-launch *transports*
(:mod:`~repro.farm.transport`: ``local`` subprocesses for CI, ``ssh``
for real farms), a *dispatcher* (:mod:`~repro.farm.dispatch`) streaming
content-hash-keyed trials to thin worker agents
(:mod:`~repro.farm.worker`), and a *merge* layer
(:mod:`~repro.farm.merge`) folding per-host progress containers into
one result set.

The contract that makes distribution free of semantic risk: results
are keyed by trial content hash (function + code + kwargs), workers
lost mid-trial (crash, SIGKILL, ssh drop, heartbeat timeout
``PNET_FARM_TIMEOUT``) get their trial reassigned -- resuming from its
last ``ckpt-%08d`` step when the trial checkpoints -- and the merged
output is **byte-identical** to a single-host
:func:`repro.exp.runner.run_trials` of the same grid, at any
host/worker/job count and through any number of worker losses.

Entry points: ``run_trials(farm=...)`` (or ``PNET_FARM_INVENTORY``)
from experiment code, ``python -m repro farm run|status|workers|merge``
from the shell.
"""

from repro.farm.dispatch import Dispatcher, FarmStats, run_on_farm
from repro.farm.inventory import (
    FarmError,
    HostSpec,
    Inventory,
    local_inventory,
    resolve_inventory,
)
from repro.farm.merge import (
    KIND_FARM,
    load_progress,
    merge_progress,
    merge_roots,
    write_progress,
)
from repro.farm.transport import (
    AUTHKEY_ENV,
    LocalTransport,
    SshTransport,
    WorkerHandle,
    get_transport,
)

__all__ = [
    "AUTHKEY_ENV",
    "Dispatcher",
    "FarmError",
    "FarmStats",
    "HostSpec",
    "Inventory",
    "KIND_FARM",
    "LocalTransport",
    "SshTransport",
    "WorkerHandle",
    "get_transport",
    "load_progress",
    "local_inventory",
    "merge_progress",
    "merge_roots",
    "resolve_inventory",
    "run_on_farm",
    "write_progress",
]
