"""Flow-level fluid simulator.

Packet-level simulation of multi-gigabyte flows at 100 Gb/s is
prohibitively slow in pure Python, so bulk-transfer experiments
(Figures 9, 12, 13, 16-20) run on a fluid model instead:

* active flows share each link max-min fairly
  (:func:`repro.fluid.maxmin.max_min_rates`, solved again whenever an
  arrival, departure, abort, migration, link failure or restore, or the
  cap doubling of a subflow held at its cap changes its inputs) -- the
  steady state TCP/MPTCP approximates;
* each subflow's rate is additionally capped by a slow-start ramp that
  starts at ``IW * MSS / RTT`` and doubles every RTT, capturing the
  small-flow transients the paper highlights in section 5.1.2.

Workload code builds the engine with ``repro.api.build_network(planes,
kind="fluid")`` so trials stay engine-agnostic (hybrid fidelity,
one run surface, uniform checkpointing).  Internal wiring that
genuinely needs the class imports it from :mod:`repro.fluid.flowsim`.
"""

from repro.fluid.flowsim import FlowRecord
from repro.fluid.maxmin import max_min_rates

__all__ = ["FlowRecord", "max_min_rates"]
