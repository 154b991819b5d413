"""The protocol zoo: consensus families beyond the paper's two algorithms.

The paper's Algorithm 1 (LOCAL counting) and Algorithm 2 (CONGEST counting)
ride the :class:`~repro.simulator.engine.SynchronousEngine` through the
:class:`~repro.simulator.node.Protocol` seam.  This package pressure-tests
that seam with protocol families that have nothing to do with counting:

* :mod:`repro.protocols.benor` -- BenOr-style randomized binary consensus
  (R1/R2 phases, majority thresholds, deterministic per-node coin streams);
* :mod:`repro.protocols.grouped_bft` -- consistent-hash node grouping with
  per-group OM(m)-style Byzantine agreement and cross-group aggregation.

The package holds the protocol classes and their spec-time envelope checks
only.  How each family runs -- its defaults, round budget, stop condition and
consensus metrics (agreement reached, decided-value distribution,
phases-to-decide) -- is its :class:`~repro.scenarios.protocols.ProtocolSpec`
in :mod:`repro.scenarios.protocols`, next to the specs of the paper's
algorithms and of the Section 1.2 baselines; every registered protocol runs
through :func:`repro.scenarios.execute.run_protocol`.
"""

from repro.protocols.common import binary_decision_metrics
from repro.protocols.grouping import GroupAssignment, assign_groups, ring_hash
from repro.protocols.benor import BenOrProtocol, spec_validate_benor
from repro.protocols.grouped_bft import GroupedBftProtocol, spec_validate_grouped_bft

__all__ = [
    "binary_decision_metrics",
    "GroupAssignment",
    "assign_groups",
    "ring_hash",
    "BenOrProtocol",
    "spec_validate_benor",
    "GroupedBftProtocol",
    "spec_validate_grouped_bft",
]
