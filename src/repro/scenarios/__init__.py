"""Declarative scenario API: composable registries for graphs x adversaries
x placements x protocols x churn schedules.

Every paper claim is "protocol P on graph family G under adversary A with
placement L" -- optionally "under churn schedule C".  This package makes
that sentence executable data:

* :mod:`repro.scenarios.registry` -- five string-keyed component registries,
  populated by decorators in :mod:`~repro.scenarios.graphs`,
  :mod:`~repro.scenarios.behaviours`, :mod:`~repro.scenarios.placements`,
  :mod:`~repro.scenarios.protocols`, and :mod:`~repro.scenarios.churn`
  (importing this package registers everything, which is what spawn-method
  sweep workers rely on).
* :mod:`repro.scenarios.spec` -- the JSON-round-trippable :class:`Scenario`
  dataclass, compiling to ``SweepConfig`` lists that ride the existing
  sweep runner and artifact cache unchanged.
* :mod:`repro.scenarios.suite` -- :class:`ScenarioSuite`: scenarios plus a
  declarative table, regenerating an experiment's table from a JSON file.
* :mod:`repro.scenarios.protocols` -- one :class:`ProtocolSpec` per
  registered protocol.
* :mod:`repro.scenarios.execute` -- the one run path (:func:`run_protocol`)
  and the generic ``scenario.run`` sweep task.

See SCENARIOS.md for the spec schema and the registry extension recipe.
"""

from repro.scenarios.registry import (
    ADVERSARIES,
    CHURN,
    GRAPHS,
    PLACEMENTS,
    PROTOCOLS,
    ComponentRegistry,
    RegistryEntry,
    UnknownComponentError,
    all_registries,
)
from repro.scenarios.graphs import build_graph
from repro.scenarios.behaviours import make_adversary
from repro.scenarios.churn import build_churn
from repro.scenarios.placements import place_byzantine
from repro.scenarios.protocols import ProtocolSpec
from repro.scenarios.spec import SCENARIO_TASK, ComponentSpec, Scenario
from repro.scenarios.suite import ScenarioSuite, SuiteRow
from repro.scenarios.execute import (
    MaterializedCell,
    ProtocolRun,
    execute_cell,
    materialize,
    run_protocol,
    run_spec,
)

__all__ = [
    "ADVERSARIES",
    "CHURN",
    "GRAPHS",
    "PLACEMENTS",
    "PROTOCOLS",
    "ProtocolRun",
    "ProtocolSpec",
    "ComponentRegistry",
    "ComponentSpec",
    "MaterializedCell",
    "RegistryEntry",
    "SCENARIO_TASK",
    "Scenario",
    "ScenarioSuite",
    "SuiteRow",
    "UnknownComponentError",
    "all_registries",
    "build_churn",
    "build_graph",
    "execute_cell",
    "make_adversary",
    "materialize",
    "place_byzantine",
    "run_protocol",
    "run_spec",
]
