"""Layer timers and counters for the traced run, installed from outside the program.

:class:`Tracer` wraps public callables of the ``repro`` package at each
layer boundary -- the engine's ``run``, every protocol's ``on_start`` and
``on_round``, ``LocalView.integrate``, every adversary strategy's ``act``,
graph building, scenario-cell execution, the sweep runner, the artifact
store and the sweep journal -- and accumulates each layer's busy time and
call count.  Only the outermost call of a layer is timed, so a subclass
that calls ``super()`` is not counted twice.  The wrappers live in this
process: a distributed worker process runs unwrapped code.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro.baselines  # noqa: F401  (defines the baseline protocol classes)
import repro.protocols  # noqa: F401  (defines the zoo protocol classes)
from repro.core.congest_counting import CongestCountingProtocol
from repro.core.local_counting import LocalCountingProtocol, LocalView
from repro.runner.artifacts import ArtifactStore
from repro.runner.journal import SweepJournal
from repro.runner.sweep import SweepRunner
from repro.scenarios import execute, graphs
from repro.simulator.byzantine import Adversary
from repro.simulator.engine import SynchronousEngine
from repro.simulator.node import Protocol

After = Callable[[Tuple[Any, ...], Any], None]


def _subclasses(cls: type) -> List[type]:
    found, stack = [], [cls]
    while stack:
        for sub in stack.pop().__subclasses__():
            if sub not in found:
                found.append(sub)
                stack.append(sub)
    return found


class Tracer:
    """Per-layer seconds and counts; :meth:`install` patches, :meth:`remove` restores."""

    def __init__(self) -> None:
        self.seconds: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._depth: Dict[str, int] = defaultdict(int)
        self._undo: List[Tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.seconds.clear()
        self.counts.clear()

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {"seconds": dict(self.seconds), "counts": dict(self.counts)}

    # ------------------------------------------------------------------ #
    def _timed(self, layer: str, fn: Callable, after: Optional[After] = None) -> Callable:
        seconds, counts, depth = self.seconds, self.counts, self._depth
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if depth[layer]:
                return fn(*args, **kwargs)
            depth[layer] = 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                seconds[layer] += clock() - start
                counts[layer] += 1
                depth[layer] = 0
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _patch(self, owner: Any, attr: str, layer: str, after: Optional[After] = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self._timed(layer, original, after))

    def install(self) -> None:
        counts = self.counts

        def engine_totals(args, result) -> None:
            counts["engine.rounds"] += result.rounds_executed
            counts["engine.messages"] += result.metrics.total_messages
            counts["engine.bits"] += result.metrics.total_bits

        def congest_step(args, result) -> None:
            counts["congest.steps"] += 1
            counts["congest.inbox_msgs"] += len(args[2])

        def local_step(args, result) -> None:
            counts["local.steps"] += 1

        def byzantine_messages(args, result) -> None:
            for per_target in (result or {}).values():
                for messages in per_target.values():
                    counts["adversary.byz_msgs"] += len(messages)

        def journal_bytes(args, result) -> None:
            try:
                counts["journal.bytes_written"] += os.path.getsize(args[0].path)
            except OSError:
                pass

        self._patch(SynchronousEngine, "run", "engine", engine_totals)
        for cls in _subclasses(Protocol):
            for attr in ("on_start", "on_round"):
                if attr in cls.__dict__:
                    after = None
                    if cls is CongestCountingProtocol and attr == "on_round":
                        after = congest_step
                    elif cls is LocalCountingProtocol and attr == "on_round":
                        after = local_step
                    self._patch(cls, attr, "protocol", after)
        self._patch(LocalView, "integrate", "local.integrate")
        for cls in _subclasses(Adversary):
            act = cls.__dict__.get("act")
            if act is not None and not getattr(act, "__isabstractmethod__", False):
                self._patch(cls, "act", "adversary", byzantine_messages)
        # ``execute`` imported ``build_graph`` by name: patch both references.
        self._patch(graphs, "build_graph", "graphs.build")
        self._patch(execute, "build_graph", "graphs.build")
        self._patch(execute, "materialize", "scenarios.cell")
        self._patch(execute, "run_protocol", "scenarios.run_protocol")
        self._patch(SweepRunner, "run", "runner.run")
        self._patch(ArtifactStore, "store", "artifacts.store")
        self._patch(ArtifactStore, "load", "artifacts.load")
        self._patch(SweepJournal, "mark_done", "journal.mark_done", journal_bytes)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
