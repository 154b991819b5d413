"""Benchmark entry point: one workload, measured from outside the program.

Usage (from the root of a source checkout)::

    python3 perfbench/run.py --workload local-n512 --seed 0 --seconds 32 --trace 0

``--trace 0`` measures the end-to-end metrics: repeated units of timed work
for ``--seconds``, with fresh-interpreter set-up probes between them.
Times are sums of per-chunk (per-stage, for set-up) minima over the units
(probes), scaled by the machine-speed gauge of :mod:`speed`, see
``README.md``.  ``--trace 1`` runs half the time untraced and
half with the layer wrappers of :mod:`tracing` installed, and reports the
per-layer metrics.  Either way the outputs are checked (see ``README.md``)
and the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import workloads
from speed import Gauge
from workloads import Unit

PROBE = Path(__file__).resolve().parent / "probe.py"
#: Fresh-interpreter set-up probes per run.
SETUP_PROBES = 9
#: Timed units per run at least, however long they take.
MIN_UNITS = 2


def probe_setup(name: str, seed: int) -> List[float]:
    """Stages of one fresh interpreter's set-up: start-up, imports, the workload's set-up (s)."""
    launched = time.perf_counter()
    child = subprocess.run(
        [sys.executable, str(PROBE), name, str(seed)],
        cwd=workloads.ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    fields = child.stdout.split()
    if child.returncode != 0 or len(fields) != 4 or fields[0] != "ready":
        raise RuntimeError(f"set-up probe of {name} failed (exit code {child.returncode})")
    # The probe reads the same monotonic clock as this process.
    started, imported, ready = (float(field) for field in fields[1:])
    return [started - launched, imported - started, ready - imported]


class Fastest:
    """(wall, CPU) seconds of one unit with each chunk at its fastest over the units seen.

    Other tenants of the machine slow it down in stretches of a fraction of
    a second to tens of seconds, and only ever slow a chunk down.  Units
    whose chunks do not line up fall back to the fastest whole unit.  Only
    the running minima are kept, so the benchmark's memory does not grow
    with the number of units.
    """

    def __init__(self) -> None:
        self.chunks: Optional[List[Tuple[float, float]]] = None
        self.aligned = True
        self.wall = self.cpu = float("inf")

    def add(self, unit: Unit) -> None:
        self.wall = min(self.wall, unit.wall_s)
        self.cpu = min(self.cpu, unit.cpu_s)
        if self.chunks is None:
            self.chunks = unit.chunks
        elif len(self.chunks) != len(unit.chunks):
            self.aligned = False
        else:
            self.chunks = [
                (min(wall, other_wall), min(cpu, other_cpu))
                for (wall, cpu), (other_wall, other_cpu) in zip(self.chunks, unit.chunks)
            ]
        unit.chunks = []

    def times(self) -> Tuple[float, float]:
        if not self.aligned:
            return self.wall, self.cpu
        return sum(wall for wall, _ in self.chunks), sum(cpu for _, cpu in self.chunks)


def timed_units(
    workload: Any,
    state: Dict[str, Any],
    seconds: float,
    min_units: int,
    tracer: Any = None,
    between: Optional[Callable[[], None]] = None,
) -> Tuple[List[Unit], int, Fastest]:
    """Run units of work for ``seconds`` of their own time, and at least ``min_units``.

    ``between`` runs before each unit, outside the measured time.  Returns
    the completed units, the number that raised (0 or 1: the timed phase
    ends at the first exception, whose cells count as failed) and the
    units' fastest times.
    """
    units: List[Unit] = []
    best = Fastest()
    spent = 0.0
    while len(units) < min_units or spent < seconds:
        if between is not None:
            between()
        gc.collect()
        if tracer is not None:
            tracer.reset()
        try:
            unit = workload.run_unit(state)
        except Exception:
            traceback.print_exc()
            if not units:
                raise
            return units, 1, best
        if tracer is not None:
            unit.layers = tracer.snapshot()
        units.append(unit)
        best.add(unit)
        spent += unit.wall_s
    return units, 0, best


def score(
    reference: Sequence[Dict[str, Any]], units: Sequence[Unit], raised: int
) -> Tuple[int, int]:
    """(attempted, failed) cells of ``units`` against the reference outputs."""
    attempted = len(reference) * (len(units) + raised)
    failed = len(reference) * raised
    failed += sum(workloads.mismatches(reference, unit.cells) for unit in units)
    return attempted, failed


def _declared_units() -> Dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def report(correct: bool, attempted: int, failed: int, values: Dict[str, float]) -> Dict[str, Any]:
    units = _declared_units()
    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def end_to_end(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    probes: List[List[float]] = []
    gauge = Gauge()

    def between() -> None:
        gauge.sample()
        if len(probes) < SETUP_PROBES:
            probes.append(probe_setup(workload.name, seed))

    state = workload.setup(seed)
    # The gauge and the probes run between units, so they sample the
    # machine's stretches as the units do.
    units, raised, best = timed_units(workload, state, seconds, MIN_UNITS, between=between)
    while len(probes) < SETUP_PROBES:
        between()
    gauge.sample()
    attempted, failed = score(workload.reference(state, units), units, raised)
    scale = gauge.scale()
    print(f"perfbench: machine speed scale {scale:.4f}", file=sys.stderr)
    wall, cpu = (value * scale for value in best.times())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return report(failed == 0, attempted, failed, {
        "setup_s": sum(min(stage) for stage in zip(*probes)) * scale,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": peak_kb / 1024.0,
        "cells_per_s": len(units[0].cells) / wall,
        "msgs_per_cpu_s": units[0].messages / cpu,
    })


def _layer_values(unit: Unit, setup_build_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced unit (name -> value)."""
    s = defaultdict(float, unit.layers["seconds"])
    c = defaultdict(int, unit.layers["counts"])
    runner_run = s["runner.run"]
    values = {
        "engine.run_s": s["engine"],
        "engine.delivery_s": s["engine"] - s["protocol"] - s["adversary"],
        "engine.rounds": c["engine.rounds"],
        "engine.messages": c["engine.messages"],
        "engine.bits": c["engine.bits"],
        "protocol.step_s": s["protocol"],
        "protocol.step_calls": c["protocol"],
        "local.integrate_s": s["local.integrate"],
        "local.integrate_calls": c["local.integrate"],
        "local.integrate_per_step": c["local.integrate"] / c["local.steps"] if c["local.steps"] else 0.0,
        "congest.inbox_msgs": c["congest.inbox_msgs"],
        "congest.inbox_per_step": c["congest.inbox_msgs"] / c["congest.steps"] if c["congest.steps"] else 0.0,
        "adversary.act_s": s["adversary"],
        "adversary.act_calls": c["adversary"],
        "adversary.byz_msgs": c["adversary.byz_msgs"],
        # Single-run workloads build their graph once, in set-up.
        "graphs.build_s": s["graphs.build"] + setup_build_s,
        "scenarios.cell_s": s["scenarios.cell"],
        "scenarios.overhead_s": s["scenarios.cell"] - s["scenarios.run_protocol"],
        "runner.run_s": runner_run,
        "runner.task_s": unit.task_s,
        "runner.overhead_s": runner_run - unit.task_s if runner_run else 0.0,
        "artifacts.store_s": s["artifacts.store"],
        "artifacts.store_calls": c["artifacts.store"],
        "artifacts.load_s": s["artifacts.load"],
        "journal.mark_done_s": s["journal.mark_done"],
        "journal.mark_done_calls": c["journal.mark_done"],
        "journal.bytes_written": c["journal.bytes_written"],
    }
    return values


def _dispatch_values(unit: Optional[Unit]) -> Dict[str, float]:
    """runner.distributed metrics of one traced distributed sweep; 0 without one."""
    if unit is None:
        return dict.fromkeys(
            ("dist.dispatch_wait_s", "dist.coordinator_cpu_s", "dist.worker_cpu_s",
             "dist.leases", "dist.dispatched", "dist.retries"),
            0,
        )
    return {
        "dist.dispatch_wait_s": unit.layers["seconds"].get("runner.run", 0.0) - unit.task_s,
        "dist.coordinator_cpu_s": unit.coordinator_cpu_s,
        "dist.worker_cpu_s": unit.worker_cpu_s,
        "dist.leases": unit.stats.get("leases", 0),
        "dist.dispatched": unit.stats.get("dispatched", 0),
        "dist.retries": unit.stats.get("retries", 0),
    }


def traced(workload: Any, seed: int, seconds: float) -> Dict[str, Any]:
    from tracing import Tracer

    state = workload.setup(seed)
    # Each half is scaled by its own gauge, as the untraced run is.
    plain_gauge, traced_gauge = Gauge(), Gauge()
    plain, plain_raised, plain_best = timed_units(
        workload, state, seconds / 2.0, 1, between=plain_gauge.sample
    )
    plain_gauge.sample()
    tracer = Tracer()
    tracer.install()
    try:
        traced_state = workload.setup(seed)
        setup_build_s = tracer.seconds.get("graphs.build", 0.0)
        with_trace, traced_raised, traced_best = timed_units(
            workload, traced_state, seconds / 2.0, 1, tracer, between=traced_gauge.sample
        )
        traced_gauge.sample()
        # The sweep's dispatch layer: one distributed sweep of the same
        # cells, which must give the serial outputs.
        distributed = None
        if hasattr(workload, "run_distributed_unit"):
            tracer.reset()
            distributed = workload.run_distributed_unit(traced_state)
            distributed.layers = tracer.snapshot()
    finally:
        tracer.remove()
    reference = workload.reference(state, plain)
    attempted, failed = score(reference, plain, plain_raised)
    traced_units = with_trace + ([distributed] if distributed is not None else [])
    traced_attempted, traced_failed = score(reference, traced_units, traced_raised)

    per_unit = [_layer_values(unit, setup_build_s) for unit in with_trace]
    values = {
        name: min(row[name] for row in per_unit) if name.endswith("_s") else per_unit[0][name]
        for name in per_unit[0]
    }
    # Time between consecutive results reaching the caller, from the untraced half.
    gaps = [gap for unit in plain for gap in unit.gaps]
    values["runner.gap_p90_s"] = statistics.quantiles(gaps, n=10)[-1] if len(gaps) > 1 else gaps[0]
    values["trace.overhead_s"] = (
        traced_best.times()[0] * traced_gauge.scale() - plain_best.times()[0] * plain_gauge.scale()
    )
    values.update(_dispatch_values(distributed))

    problems: List[str] = []
    if traced_failed:
        problems.append(f"traced run: {traced_failed} cell(s) differ from the reference")
    engine_checks = (
        ("engine.rounds", plain[0].rounds),
        ("engine.messages", plain[0].messages),
        ("engine.bits", plain[0].bits),
    )
    for name, untraced_value in engine_checks:
        if any(row[name] != untraced_value for row in per_unit):
            problems.append(f"traced {name} differs from the untraced {untraced_value}")
    if workload.name == "local-n512" and values["local.integrate_calls"] != values["engine.messages"]:
        problems.append(
            f"local.integrate_calls {values['local.integrate_calls']} != "
            f"engine.messages {values['engine.messages']}"
        )
    for problem in problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    return report(
        failed == 0 and not problems, attempted + traced_attempted, failed + traced_failed, values
    )


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    if args.trace:
        report = traced(workload, args.seed, args.seconds)
    else:
        report = end_to_end(workload, args.seed, args.seconds)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
