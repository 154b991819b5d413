"""The registered protocols: one :class:`ProtocolSpec` per protocol.

A spec is everything the one run path,
:func:`repro.scenarios.execute.run_protocol`, needs to know about a protocol:

* ``factory(graph, params, seed=..., churn=...)`` builds the per-node
  protocol factory of one run.  Run-scoped shared state, such as Algorithm
  1's claim interner or Algorithm 2's phase schedule, is created here once
  per run.
* ``params`` resolves a scenario's protocol params against the graph.  For
  Algorithms 1 and 2 it is the params dataclass, with graph-derived
  defaults from ``defaults``; for the zoo it is a resolver
  ``(graph, *, key=default, ...) -> dict``.
* ``budget(graph, params)`` is the default round budget; a scenario's
  ``max_rounds`` overrides it unless the spec has a ``fixed_budget``.
* ``stop(engine, **options)`` is an optional early-stop condition.
* ``extra_metrics(result, outcome)`` adds optional protocol-specific
  metrics after the uniform ones.
* ``validate(params, n)`` is an optional spec-time envelope check.

The parameter surface is derived, never restated: the dataclass fields or
the resolver's keywords, then ``max_rounds``, then the stop condition's
keywords.  :meth:`repro.scenarios.spec.Scenario.validate` checks a scenario's
protocol params against it at compile time, and ``scenario list`` prints it.

Registering a new protocol is one ``PROTOCOLS.add(name, ProtocolSpec(...),
description=...)`` call (see SCENARIOS.md, "Extension recipe").
"""

from __future__ import annotations

import inspect
import math
import re
from dataclasses import MISSING, dataclass, fields, is_dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.baselines import (
    FloodingDiameterProtocol,
    GeometricMaxProtocol,
    SpanningTreeProtocol,
    SupportEstimationProtocol,
)
from repro.core.congest_counting import CongestCountingProtocol, PhaseSchedule
from repro.core.estimate import CountingOutcome
from repro.core.local_counting import ClaimInterner, LocalCountingProtocol
from repro.core.parameters import CongestParameters, LocalParameters
from repro.graphs.graph import Graph
from repro.protocols import (
    BenOrProtocol,
    GroupedBftProtocol,
    assign_groups,
    binary_decision_metrics,
    spec_validate_benor,
    spec_validate_grouped_bft,
)
from repro.scenarios.registry import PROTOCOLS
from repro.simulator.engine import RunResult
from repro.simulator.node import NodeContext, Protocol

__all__ = ["ProtocolSpec", "LOCAL", "CONGEST"]

Factory = Callable[[NodeContext], Protocol]
StopCondition = Callable[[Dict[int, Protocol], int], bool]


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Spec-time type checks of params dataclass fields, by annotation name.
_FIELD_CHECKS = {
    "bool": lambda value: isinstance(value, bool),
    "int": _is_int,
    "float": _is_number,
}


def _keywords(fn: Callable[..., Any]) -> List[Tuple[str, bool]]:
    """``(name, required)`` of ``fn``'s keyword-only parameters, in order."""
    return [
        (p.name, p.default is inspect.Parameter.empty)
        for p in inspect.signature(fn).parameters.values()
        if p.kind is inspect.Parameter.KEYWORD_ONLY
    ]


def _build_params(cls: type, values: Mapping[str, Any]) -> Any:
    """``cls(**values)`` with every error message starting ``<field>: ``."""
    for f in fields(cls):
        if f.name in values:
            value = values[f.name]
            kind = getattr(f.type, "__name__", f.type)
            check = _FIELD_CHECKS.get(kind)
            if check is not None and not check(value):
                raise TypeError(f"{f.name}: expected {kind}, got {value!r}")
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name}: must be finite, got {value!r}")
    try:
        return cls(**values)
    except ValueError as exc:
        # Blame the given param the message names first (e.g. Equation (2)
        # names gamma, delta and eta).
        text = str(exc)
        named = [
            (match.start(), key)
            for key in values
            if (match := re.search(rf"\b{re.escape(key)}\b", text))
        ]
        key = min(named)[1] if named else next(iter(values))
        raise ValueError(f"{key}: {text}") from None


@dataclass(frozen=True)
class ProtocolSpec:
    """How one registered protocol runs on the synchronous engine."""

    factory: Callable[..., Factory]
    params: Callable[..., Any]
    budget: Callable[[Graph, Any], int]
    defaults: Optional[Callable[[Graph], Dict[str, Any]]] = None
    fixed_budget: bool = False
    stop: Optional[Callable[..., StopCondition]] = None
    extra_metrics: Optional[Callable[[RunResult, CountingOutcome], Dict[str, Any]]] = None
    validate: Optional[Callable[[Mapping[str, Any], Optional[int]], None]] = None

    def options(self) -> List[Tuple[str, bool]]:
        """The run options beside the params: ``max_rounds`` and the stop
        condition's keywords, as ``(name, required)``."""
        keys = [] if self.fixed_budget else [("max_rounds", False)]
        return keys + (_keywords(self.stop) if self.stop is not None else [])

    def surface(self) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
        """``(required, optional)`` names of the params a scenario may set."""
        if is_dataclass(self.params):
            keys = [
                (f.name, f.default is MISSING and f.default_factory is MISSING)
                for f in fields(self.params)
            ]
        else:
            keys = _keywords(self.params)
        keys += self.options()
        return (
            tuple(name for name, required in keys if required),
            tuple(name for name, required in keys if not required),
        )

    def resolve(self, graph: Graph, values: Mapping[str, Any]) -> Any:
        """The run's effective params from a scenario's params (options removed)."""
        if is_dataclass(self.params):
            defaults = self.defaults(graph) if self.defaults is not None else {}
            return self.params(**{**defaults, **values})
        return self.params(graph, **values)

    def check(self, values: Mapping[str, Any], n: Optional[int]) -> None:
        """Spec-time check of known params; errors start with ``<key>: ``.

        Builds the params dataclass (Algorithms 1 and 2) and runs the
        envelope validator; ``n`` is the graph size when the spec carries
        one, else ``None``.
        """
        max_rounds = values.get("max_rounds")
        if max_rounds is not None and not (_is_int(max_rounds) and max_rounds >= 0):
            raise ValueError(
                f"max_rounds: must be a non-negative integer, got {max_rounds!r}"
            )
        if is_dataclass(self.params):
            names = {f.name for f in fields(self.params)}
            _build_params(self.params, {k: v for k, v in values.items() if k in names})
        if self.validate is not None:
            self.validate(values, n)


def _log2(graph: Graph) -> int:
    """``ceil(log2 n)``: the unit of the default budgets below."""
    return int(math.ceil(math.log2(max(graph.n, 2))))


# --------------------------------------------------------------------------- #
# The paper's algorithms
# --------------------------------------------------------------------------- #
def _local_factory(graph: Graph, params: LocalParameters, *, churn, **_: Any) -> Factory:
    # One claim interner per run: every view shares the hash-consed claim
    # records, so a claim is parsed once per run instead of once per
    # (receiver, arrival).  A non-empty churn schedule switches on the
    # dynamic mode (claim updates, churn-aware mute check); ``None`` and the
    # empty schedule take the exact static code paths, and the engine drops
    # an empty schedule too.
    interner = ClaimInterner()
    dynamic = bool(churn)

    def factory(ctx: NodeContext) -> Protocol:
        return LocalCountingProtocol(ctx, params, interner=interner, dynamic=dynamic)

    return factory


LOCAL = PROTOCOLS.add(
    "local",
    ProtocolSpec(
        factory=_local_factory,
        params=LocalParameters,
        defaults=lambda graph: {"max_degree": max(2, graph.max_degree())},
        # Far above Theorem 1's diam(G) + 1 on the expander workloads.
        budget=lambda graph, params: 6 * _log2(graph) + 20,
    ),
    description="Algorithm 1: deterministic LOCAL counting (Theorem 1).",
)


def _congest_factory(graph: Graph, params: CongestParameters, **_: Any) -> Factory:
    schedule = PhaseSchedule(params)

    def factory(ctx: NodeContext) -> Protocol:
        return CongestCountingProtocol(ctx, params, schedule)

    return factory


def _congest_stop(engine, *, stop_when_all_decided: bool = True) -> StopCondition:
    """Stop once every honest node has decided (decisions are irrevocable).

    With ``stop_when_all_decided=False`` (Corollary 1 mode) the run stops
    only when everyone has decided, left the for-loop, and the network has
    gone quiescent (no messages at all in the previous round).  Both read
    the engine's incrementally maintained decision counter instead of
    scanning every protocol every round; the participation scan only runs
    once all decisions are in.
    """
    num_honest = len(engine.protocols)
    if stop_when_all_decided:
        def stop_condition(protocols: Dict[int, Protocol], _round: int) -> bool:
            return engine.decided_count == num_honest
    else:
        def stop_condition(protocols: Dict[int, Protocol], _round: int) -> bool:
            if engine.decided_count < num_honest:
                return False
            all_done = all(not p.participating for p in protocols.values())
            last_round_messages = (
                engine.metrics.messages_per_round[-1]
                if engine.metrics.messages_per_round
                else 1
            )
            return all_done and last_round_messages == 0

    return stop_condition


CONGEST = PROTOCOLS.add(
    "congest",
    ProtocolSpec(
        factory=_congest_factory,
        params=CongestParameters,
        defaults=lambda graph: {"d": max(3, graph.max_degree())},
        budget=lambda graph, params: params.round_budget(graph.n),
        stop=_congest_stop,
    ),
    description="Algorithm 2: randomized small-message CONGEST counting (Theorem 2).",
)


# --------------------------------------------------------------------------- #
# The protocol zoo: consensus families.  Their adversaries get the resolved
# params dict, which no scheduled Algorithm 2 attack reads.
# --------------------------------------------------------------------------- #
def _benor_params(
    graph: Graph, *, f: int = 1, initial: Any = "coin", max_phases: Optional[int] = None
) -> Dict[str, Any]:
    # ``6·ceil(log2 n) + 16`` phases is far beyond the expected constant
    # number on benign runs, so undecided nodes at the budget indicate
    # genuine (adversarial or topological) divergence.
    if max_phases is None:
        max_phases = 6 * _log2(graph) + 16
    return {"f": f, "initial": initial, "max_phases": max_phases}


def _benor_factory(graph: Graph, params: Dict[str, Any], *, seed: int, **_: Any) -> Factory:
    return lambda ctx: BenOrProtocol(ctx, seed=seed, **params)


def _all_decided(engine) -> StopCondition:
    """Stop once every honest node has decided (decided nodes keep echoing)."""
    return lambda protocols, _round: all(p.decided for p in protocols.values())


def _benor_metrics(result: RunResult, outcome: CountingOutcome) -> Dict[str, Any]:
    phases = [
        p.decided_phase
        for p in result.protocols.values()
        if isinstance(p, BenOrProtocol) and p.decided_phase is not None
    ]
    return {
        **binary_decision_metrics(outcome),
        "phases_to_decide": max(phases) if phases else None,
    }


PROTOCOLS.add(
    "benor",
    ProtocolSpec(
        factory=_benor_factory,
        params=_benor_params,
        budget=lambda graph, params: 2 * params["max_phases"] + 2,
        stop=_all_decided,
        extra_metrics=_benor_metrics,
        validate=spec_validate_benor,
    ),
    description="BenOr-style randomized binary consensus (R1/R2 phases, per-node coins).",
)


def _grouped_bft_params(
    graph: Graph,
    *,
    f: int = 1,
    groups: Optional[int] = None,
    hops: Optional[int] = None,
    initial: Any = "coin",
) -> Dict[str, Any]:
    # ``groups`` defaults to ``max(1, n // (4·(3f + 1)))``: expected group
    # sizes comfortably above the ``3f + 1`` OM envelope.  ``hops``, the
    # per-cascade-level flood budget, defaults to 1 on complete graphs and
    # ``ceil(log2 n) + 2`` otherwise, an upper bound on the diameter of
    # every expander family shipped in :mod:`repro.graphs`.
    if graph.n <= 3 * f:
        raise ValueError(f"grouped-bft needs n > 3f (n={graph.n}, f={f})")
    if groups is None:
        groups = max(1, graph.n // (4 * (3 * f + 1)))
    if hops is None:
        complete = all(len(graph.adjacency[u]) == graph.n - 1 for u in range(graph.n))
        hops = 1 if complete else _log2(graph) + 2
    return {"f": f, "groups": groups, "hops": hops, "initial": initial}


def _grouped_bft_factory(
    graph: Graph, params: Dict[str, Any], *, seed: int, **_: Any
) -> Factory:
    assignment = assign_groups(graph.node_ids, params["groups"])

    def factory(ctx: NodeContext) -> Protocol:
        return GroupedBftProtocol(
            ctx,
            assignment=assignment,
            f=params["f"],
            hops=params["hops"],
            initial=params["initial"],
            seed=seed,
        )

    return factory


def _grouped_bft_metrics(result: RunResult, outcome: CountingOutcome) -> Dict[str, Any]:
    some = next(iter(result.protocols.values()), None)
    members = some.assignment.members if some is not None else ()
    sizes = [len(ids) for ids in members if ids]
    return {
        **binary_decision_metrics(outcome),
        "groups": len(sizes),
        "min_group_size": min(sizes) if sizes else 0,
        "max_group_size": max(sizes) if sizes else 0,
    }


PROTOCOLS.add(
    "grouped-bft",
    ProtocolSpec(
        factory=_grouped_bft_factory,
        params=_grouped_bft_params,
        # Every node decides at round (f + 2)·hops + 1.
        budget=lambda graph, params: (params["f"] + 2) * params["hops"] + 3,
        extra_metrics=_grouped_bft_metrics,
        validate=spec_validate_grouped_bft,
    ),
    description="Consistent-hash grouped OM(m) agreement with cross-group aggregation.",
)


# --------------------------------------------------------------------------- #
# The Section 1.2 baselines.  Their budgets are fixed by their phase lengths.
# --------------------------------------------------------------------------- #
def _baseline_rounds(graph: Graph) -> int:
    """The default per-phase budget ``2·ceil(log2 n) + 6``: enough for a
    maximum to flood any expander -- information the counting protocols
    cannot assume, which is part of why they are harder to build."""
    return 2 * _log2(graph) + 6


def _positive_ints(values: Mapping[str, Any], n: Optional[int]) -> None:
    """Spec-time check of the baselines: every set param is a positive int."""
    for key, value in values.items():
        if value is not None and not (_is_int(value) and value >= 1):
            raise ValueError(f"{key}: must be a positive integer, got {value!r}")


def _phase_rounds(graph: Graph, *, phase_rounds: Optional[int] = None) -> Dict[str, Any]:
    return {"phase_rounds": _baseline_rounds(graph) if phase_rounds is None else phase_rounds}


def _rounds_budget(graph: Graph, *, rounds_budget: Optional[int] = None) -> Dict[str, Any]:
    return {"rounds_budget": _baseline_rounds(graph) if rounds_budget is None else rounds_budget}


def _support_params(
    graph: Graph, *, rounds_budget: Optional[int] = None, k: int = 16
) -> Dict[str, Any]:
    return {**_rounds_budget(graph, rounds_budget=rounds_budget), "k": k}


def _flooding_factory(graph: Graph, params: Dict[str, Any], **_: Any) -> Factory:
    rounds = params["phase_rounds"]
    return lambda ctx: FloodingDiameterProtocol(ctx, rounds, rounds)


def _geometric_factory(graph: Graph, params: Dict[str, Any], **_: Any) -> Factory:
    budget = params["rounds_budget"]
    return lambda ctx: GeometricMaxProtocol(ctx, budget)


def _spanning_tree_factory(graph: Graph, params: Dict[str, Any], **_: Any) -> Factory:
    rounds = params["phase_rounds"]
    return lambda ctx: SpanningTreeProtocol(ctx, rounds, rounds, rounds)


def _support_factory(graph: Graph, params: Dict[str, Any], **_: Any) -> Factory:
    budget, k = params["rounds_budget"], params["k"]
    return lambda ctx: SupportEstimationProtocol(ctx, budget, k)


PROTOCOLS.add(
    "flooding",
    ProtocolSpec(
        factory=_flooding_factory,
        params=_phase_rounds,
        budget=lambda graph, params: 2 * params["phase_rounds"] + 4,
        fixed_budget=True,
        validate=_positive_ints,
    ),
    description="Flooding-based diameter estimation (Section 1.2 baseline).",
)

PROTOCOLS.add(
    "geometric",
    ProtocolSpec(
        factory=_geometric_factory,
        params=_rounds_budget,
        budget=lambda graph, params: params["rounds_budget"] + 2,
        fixed_budget=True,
        validate=_positive_ints,
    ),
    description="Geometric-distribution maximum propagation (Section 1.2 baseline).",
)

PROTOCOLS.add(
    "spanning-tree",
    ProtocolSpec(
        factory=_spanning_tree_factory,
        params=_phase_rounds,
        budget=lambda graph, params: 3 * params["phase_rounds"] + 4,
        fixed_budget=True,
        validate=_positive_ints,
    ),
    description="BFS spanning-tree count-and-spread (Section 1.2 baseline).",
)

PROTOCOLS.add(
    "support-estimation",
    ProtocolSpec(
        factory=_support_factory,
        params=_support_params,
        budget=lambda graph, params: params["rounds_budget"] + 2,
        fixed_budget=True,
        validate=_positive_ints,
    ),
    description="Exponential-minimum support estimation (Section 1.2 baseline).",
)
