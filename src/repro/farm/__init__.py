"""repro.farm -- multi-host run-farm orchestration.

Scale a trial sweep past one machine the way FireSim's manager scales
FPGA simulations past one box: a declarative host *inventory*
(:mod:`~repro.farm.inventory`), pluggable worker-launch *transports*
(:mod:`~repro.farm.transport`: ``local`` subprocesses for CI, ``ssh``
for real farms), and a *dispatcher* (:mod:`~repro.farm.dispatch`)
streaming trials to thin worker agents (:mod:`~repro.farm.worker`).

The contract that makes distribution free of semantic risk: workers
lost mid-trial (crash, SIGKILL, ssh drop, heartbeat timeout
``PNET_FARM_TIMEOUT``) get their trial reassigned and recomputed from
scratch, and the merged output is **byte-identical** to a single-host
:func:`repro.exp.runner.run_trials` of the same grid, at any
host/worker/job count and through any number of worker losses.  A
worker running other code -- another protocol revision, or a result
whose content hash differs from the dispatcher's -- is declared lost
too, so no result of other code is merged or cached.
``run_trials`` stores every farm result in the dispatcher's own trial
cache, keyed by function, code and kwargs, so a killed farm sweep
resumes from it on any host count, one included.

Entry points: ``run_trials(farm=...)`` (or ``PNET_FARM_INVENTORY``)
from experiment code, ``python -m repro farm run|workers`` from the
shell.
"""

from repro.farm.dispatch import Dispatcher, FarmStats, run_on_farm
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
    "LocalTransport",
    "SshTransport",
    "WorkerHandle",
    "get_transport",
    "local_inventory",
    "resolve_inventory",
    "run_on_farm",
]
