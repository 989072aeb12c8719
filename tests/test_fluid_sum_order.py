"""Fluid results must not depend on how the interpreter's ``sum`` adds.

Up to Python 3.11 ``sum`` adds floats left to right; from 3.12 it
compensates rounding error (Neumaier's algorithm), so the same additions
can round differently.  Every float sum on the fluid trajectory -- a
flow's rate from its subflows, ``aggregate_rate``, ``delivered_bytes``,
and the per-flow progress and mean plane load the control plane steers
by -- adds left to right from 0.0 explicitly.  Shadowing ``sum`` in
those modules with a 3.12-style compensated sum must then leave a
slow-start fluid trial and a load-aware fluid trial byte-identical.
"""

from __future__ import annotations

import builtins
import math
import pickle

import pytest

from repro import api
from repro.analysis.stats import left_sum
from repro.control import Controller, LoadAwarePolicy
from repro.control import monitor
from repro.fluid import flowsim
from repro.obs import Registry

from tests.test_fluid_rate_reuse import arrival_pnet, arrival_specs

#: With 150 flows a compensated ``sum`` moves completions of the engine
#: that added with ``sum``; with 60 it moves none.
N_FLOWS = 150


def compensated_sum(iterable, start=0):
    """``sum`` as Python 3.12 computes it for floats."""
    items = list(iterable)
    if not all(isinstance(item, float) for item in items):
        return builtins.sum(items, start)
    total = float(start)
    compensation = 0.0
    for item in items:
        t = total + item
        if abs(total) >= abs(item):
            compensation += (total - t) + item
        else:
            compensation += (item - t) + total
        total = t
    if compensation and math.isfinite(compensation):
        total += compensation
    return total


def test_compensated_sum_differs_from_left_to_right():
    values = [0.1] * 10
    assert left_sum(values) == 0.9999999999999999
    assert compensated_sum(values) == 1.0
    assert compensated_sum([1, 2]) == 3


def fluid_trial(control):
    pnet = arrival_pnet()
    net = api.build_network(
        pnet.planes, kind="fluid", obs=Registry(), slow_start=True
    )
    result = api.run_trial(
        net, arrival_specs(pnet, N_FLOWS), control=control
    )
    return pickle.dumps(result.records), result.meta.get("control")


@pytest.mark.parametrize("control", ["off", "load-aware"])
def test_records_do_not_depend_on_sum(monkeypatch, control):
    def make():
        if control == "off":
            return control
        return Controller(
            LoadAwarePolicy(seed=0, hysteresis=1.05), interval=2e-5
        )

    plain = fluid_trial(make())
    for module in (flowsim, monitor):
        monkeypatch.setattr(module, "sum", compensated_sum, raising=False)
    shadowed = fluid_trial(make())
    if control != "off":
        assert plain[1]["stats"]["applied"] >= 2
    assert shadowed == plain
