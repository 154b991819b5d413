"""The benchmark's workloads: what runs before the timed phase, and one unit of timed work.

Every workload has a ``setup(seed)`` step -- everything a user waits for
before the work starts -- and a ``run_unit(state)`` step that does one unit
of timed work and returns a :class:`Unit`.  A unit is one simulation run
(``local-n512``, ``congest-flood-n512``) or one sweep of many
(scenario, seed) cells (``zoo-sweep``).  ``zoo-sweep`` can also run the same
cells through the distributed backend, for the traced run's dispatch layer.

A unit is cut into chunks at progress marks that recur in the same order in
every unit of a run: an Algorithm 1 protocol step, an adversary round of
Algorithm 2, a sweep result.  ``run.py`` sums the fastest time of each chunk
over the units, so a slow stretch of the machine costs only the chunks it
hit in every unit.

The module only calls public entry points of the ``repro`` package found in
``src/`` next to this directory: the scenario registries (``build_graph``,
``place_byzantine``), ``run_local_counting``, ``run_congest_counting`` with
the beacon-flood strategy, ``ScenarioSuite``, ``SweepRunner`` and its
serial and distributed backends.
"""

from __future__ import annotations

import json
import math
import random
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Per-run scratch space (artifact stores of the sweep workloads).
SCRATCH = ROOT / ".perfbench-tmp"
EXPECTED_PATH = HERE / "expected.json"
ZOO_SUITE_PATH = HERE / "zoo_suite.json"

#: The seed whose single-run outputs are stored in ``expected.json``.
DEFAULT_SEED = 0

if not (SRC / "repro" / "__init__.py").is_file():
    raise SystemExit(
        f"perfbench: no repro package at {SRC}; run the benchmark from the "
        "root of a source checkout"
    )
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.core.congest_counting import run_congest_counting  # noqa: E402
from repro.core.local_counting import LocalCountingProtocol, run_local_counting  # noqa: E402
from repro.core.parameters import CongestParameters, LocalParameters  # noqa: E402
from repro.runner.backends import ExecutionBackend, SerialBackend  # noqa: E402
from repro.runner.distributed import DistributedBackend  # noqa: E402
from repro.runner.sweep import SweepRunner  # noqa: E402
from repro.scenarios import graphs, placements  # noqa: E402
from repro.scenarios.suite import ScenarioSuite  # noqa: E402
from repro.adversary.strategies import BeaconFloodAdversary  # noqa: E402


@dataclass
class Unit:
    """One unit of timed work and what it produced."""

    wall_s: float
    #: CPU of this process plus children reaped during the unit.
    cpu_s: float
    #: Seconds between consecutive results (one per cell).
    gaps: List[float]
    #: Per-cell outputs, JSON-normalized; checked against the reference.
    cells: List[Dict[str, Any]]
    #: Deterministic engine totals summed over the unit's cells.
    rounds: int
    messages: int
    bits: int
    #: Sum of per-task wall-clock seconds recorded by the runner (sweeps).
    task_s: float = 0.0
    coordinator_cpu_s: float = 0.0
    worker_cpu_s: float = 0.0
    #: Backend statistics of the sweep (distributed: leases, retries, ...).
    stats: Dict[str, Any] = field(default_factory=dict)
    #: Per-layer seconds and counts, filled in by a traced run.
    layers: Optional[Dict[str, Dict[str, float]]] = None
    #: (wall, CPU) seconds of each chunk, in order; they add up to
    #: ``wall_s`` and ``cpu_s``.
    chunks: List[Tuple[float, float]] = field(default_factory=list)


class Marks:
    """(wall, CPU) clock readings at progress marks; consecutive ones bound a chunk."""

    def __init__(self) -> None:
        self.points: List[Tuple[float, float]] = []
        self.mark()

    def mark(self) -> None:
        self.points.append((time.perf_counter(), time.process_time()))

    def chunks(self) -> List[Tuple[float, float]]:
        return [(b[0] - a[0], b[1] - a[1]) for a, b in zip(self.points, self.points[1:])]


def canonical(value: Any) -> Any:
    """JSON round-trip, so fresh and stored values compare equal."""
    return json.loads(json.dumps(value))


def mismatches(reference: Sequence[Dict[str, Any]], cells: Sequence[Dict[str, Any]]) -> int:
    """Cells whose outputs differ from ``reference``.

    Only keys present in the reference are compared, so an output key that
    the program adds later does not count as an error; a changed or missing
    value does.  A missing cell counts as one mismatch.
    """
    bad = abs(len(reference) - len(cells))
    for want, got in zip(reference, cells):
        # Compared as JSON text, so that NaN equals NaN.
        if any(
            key not in got or json.dumps(got[key]) != json.dumps(value)
            for key, value in want.items()
        ):
            bad += 1
    return bad


def load_expected(key: str) -> List[Dict[str, Any]]:
    with EXPECTED_PATH.open() as handle:
        return json.load(handle)[key]


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _run_summary(run: Any) -> Dict[str, Any]:
    """The checked outputs of one Algorithm 1 / Algorithm 2 run."""
    outcome = run.outcome
    low, high = outcome.estimate_range(over_evaluation_set=False)
    return canonical(
        {
            "rounds_executed": outcome.rounds_executed,
            "max_decision_round": outcome.max_decision_round(over_evaluation_set=False),
            "messages": outcome.total_messages,
            "bits": outcome.total_bits,
            "decided_fraction": outcome.decided_fraction(over_evaluation_set=False),
            "median_estimate": outcome.median_estimate(over_evaluation_set=False),
            "min_estimate": low,
            "max_estimate": high,
        }
    )


class _SingleRun:
    """A workload whose unit is one simulation run on a prebuilt graph."""

    name = "?"
    expected_key = "?"

    def execute(self, state: Dict[str, Any], mark: Callable[[], None]) -> Any:
        """One run, calling ``mark`` at each progress mark."""
        raise NotImplementedError

    def run_unit(self, state: Dict[str, Any]) -> Unit:
        marks = Marks()
        run = self.execute(state, marks.mark)
        marks.mark()
        result = run.result
        chunks = marks.chunks()
        wall = sum(chunk_wall for chunk_wall, _ in chunks)
        unit = Unit(
            wall_s=wall,
            cpu_s=sum(chunk_cpu for _, chunk_cpu in chunks),
            chunks=chunks,
            gaps=[wall],
            cells=[_run_summary(run)],
            rounds=result.rounds_executed,
            messages=result.metrics.total_messages,
            bits=result.metrics.total_bits,
        )
        del run, result
        return unit

    def reference(self, state: Dict[str, Any], units: Sequence[Unit]) -> List[Dict[str, Any]]:
        if state["seed"] == DEFAULT_SEED:
            return load_expected(self.expected_key)
        return units[0].cells


class LocalWorkload(_SingleRun):
    """Algorithm 1 (LOCAL), benign, on H(512, 8): the E12 cell."""

    name = "local-n512"
    expected_key = "local-n512"
    n = 512
    degree = 8

    def setup(self, seed: int) -> Dict[str, Any]:
        graph = graphs.build_graph("hnd", n=self.n, degree=self.degree, seed=seed + self.n)
        return {"seed": seed, "graph": graph, "params": LocalParameters(max_degree=self.degree)}

    def execute(self, state: Dict[str, Any], mark: Callable[[], None]) -> Any:
        # A mark before every node's round step: about 2,000 chunks of ~1 ms.
        step = LocalCountingProtocol.__dict__["on_round"]

        def on_round(protocol, *args, **kwargs):
            mark()
            return step(protocol, *args, **kwargs)

        LocalCountingProtocol.on_round = on_round
        try:
            return run_local_counting(state["graph"], params=state["params"], seed=state["seed"])
        finally:
            LocalCountingProtocol.on_round = step


class CongestFloodWorkload(_SingleRun):
    """Algorithm 2 under beacon-flood on H(512, 8) with B = round(n^0.3) = 6: the E2 cell."""

    name = "congest-flood-n512"
    expected_key = "congest-flood-n512"
    n = 512
    degree = 8
    byzantine = 6

    def setup(self, seed: int) -> Dict[str, Any]:
        params = CongestParameters(d=self.degree)
        graph = graphs.build_graph(
            "hnd", n=self.n, degree=self.degree, seed=seed + self.n + self.byzantine
        )
        byzantine = placements.place_byzantine(
            "spread", graph, self.byzantine, seed=seed + self.byzantine
        )
        budget = params.rounds_through_phase(int(math.ceil(math.log(self.n))) + 1)
        return {
            "seed": seed,
            "graph": graph,
            "byzantine": byzantine,
            "params": params,
            "budget": budget,
        }

    def execute(self, state: Dict[str, Any], mark: Callable[[], None]) -> Any:
        params = state["params"]
        adversary = BeaconFloodAdversary(params)
        act = adversary.act

        def act_marked(view):
            # The adversary acts once per round: about 2,500 chunks of ~2 ms.
            mark()
            return act(view)

        adversary.act = act_marked
        return run_congest_counting(
            state["graph"],
            byzantine=state["byzantine"],
            adversary=adversary,
            params=params,
            seed=state["seed"],
            max_rounds=state["budget"],
        )


class _Stamped(ExecutionBackend):
    """Forward to another backend, marking each result as it reaches the runner."""

    def __init__(self, inner: ExecutionBackend, marks: Marks) -> None:
        self.inner = inner
        self.name = inner.name
        self.parallel = inner.parallel
        self.persists = inner.persists
        self.marks = marks

    def execute(self, pending, *, store=None, force=False) -> Iterator[Any]:
        for item in self.inner.execute(pending, store=store, force=force):
            self.marks.mark()
            yield item

    def __getattr__(self, name: str) -> Any:
        # last_stats / last_events / last_faults of the wrapped backend.
        return getattr(self.inner, name)


def zoo_cells(seed: int) -> Tuple[List[Any], List[int]]:
    """The sweep's 120 cells, in an order drawn from ``seed``, and that order.

    The cell set is fixed: the work of small random cells differs by about
    10% from one set of cell seeds to the next, more than a regression
    bound can absorb.  Every seed therefore does the same work, and every
    seed is checked against ``expected.json``.
    """
    configs = ScenarioSuite.from_json(ZOO_SUITE_PATH.read_text()).compile()
    order = list(range(len(configs)))
    random.Random(seed).shuffle(order)
    return [configs[i] for i in order], order


def scratch_dir() -> str:
    SCRATCH.mkdir(exist_ok=True)
    return tempfile.mkdtemp(prefix="sweep-", dir=SCRATCH)


class ZooSweepWorkload:
    """The 120 zoo cells through ``SweepRunner`` with a fresh artifact store."""

    name = "zoo-sweep"
    expected_key = "zoo"

    def _sweep(self, configs: Sequence[Any], distributed: bool) -> Unit:
        directory = scratch_dir()
        try:
            children0 = _children_cpu()
            marks = Marks()
            inner = (
                DistributedBackend(spawn_workers=1, quiet=True) if distributed else SerialBackend()
            )
            backend = _Stamped(inner, marks)
            runner = SweepRunner(artifact_dir=directory, backend=backend, progress=False)
            cells = runner.run(configs)
            marks.mark()
            worker = _children_cpu() - children0
        finally:
            shutil.rmtree(directory, ignore_errors=True)
            try:
                SCRATCH.rmdir()
            except OSError:
                pass  # another store still in use
        chunks = marks.chunks()
        wall = sum(chunk_wall for chunk_wall, _ in chunks)
        coordinator = sum(chunk_cpu for _, chunk_cpu in chunks)
        # The last chunk runs from the last result to the end of the sweep.
        gaps = [chunk_wall for chunk_wall, _ in chunks[:-1]]
        if distributed:
            # Mostly waits between the two processes, not CPU work: one
            # chunk per unit, holding the worker's CPU as well.
            chunks = [(wall, coordinator + worker)]
        return Unit(
            wall_s=wall,
            cpu_s=coordinator + worker,
            chunks=chunks,
            gaps=gaps,
            cells=cells,
            rounds=sum(cell["rounds_executed"] for cell in cells),
            messages=sum(cell["messages"] for cell in cells),
            bits=sum(cell["bits"] for cell in cells),
            task_s=sum(meta["wall_clock_s"] for meta in runner.last_metas if meta),
            coordinator_cpu_s=coordinator,
            worker_cpu_s=worker,
            stats=dict(getattr(backend, "last_stats", None) or {}),
        )

    def setup(self, seed: int) -> Dict[str, Any]:
        configs, order = zoo_cells(seed)
        return {"seed": seed, "configs": configs, "order": order}

    def run_unit(self, state: Dict[str, Any]) -> Unit:
        return self._sweep(state["configs"], distributed=False)

    def run_distributed_unit(self, state: Dict[str, Any]) -> Unit:
        """The same sweep through ``DistributedBackend`` with one spawned loopback worker.

        The backend starts its broker and a fresh worker inside every sweep
        (the program has no persistent loopback worker), so the unit pays
        for the worker's start-up too.
        """
        return self._sweep(state["configs"], distributed=True)

    def reference(self, state: Dict[str, Any], units: Sequence[Unit]) -> List[Dict[str, Any]]:
        # Recorded from the serial sweep, so a distributed unit checked
        # against it shows serial = distributed.
        expected = load_expected(self.expected_key)
        return [expected[i] for i in state["order"]]


WORKLOADS = {
    workload.name: workload
    for workload in (
        LocalWorkload(),
        CongestFloodWorkload(),
        ZooSweepWorkload(),
    )
}
