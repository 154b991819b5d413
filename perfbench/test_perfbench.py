"""Checks of the benchmark itself (fast; collected by the repository's pytest run)."""

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from run import Fastest, _dispatch_values, _layer_values, score
from speed import REFERENCE_ROUND_S, Gauge
from workloads import Unit


def _zoo_unit(cells):
    return Unit(wall_s=1.0, cpu_s=1.0, gaps=[1.0], cells=cells, rounds=0, messages=0, bits=0)


def _first_zoo_cell():
    """The first zoo cell at the default seed, executed directly."""
    from repro.scenarios.execute import execute_cell

    configs, order = workloads.zoo_cells(workloads.DEFAULT_SEED)
    config = configs[order.index(0)]
    return workloads.canonical(execute_cell(**config.params))


def test_stored_cell_matches_the_program():
    expected = workloads.load_expected("zoo")[:1]
    attempted, failed = score(expected, [_zoo_unit([_first_zoo_cell()])], 0)
    assert (attempted, failed) == (1, 0)


def test_perturbed_expected_value_counts_as_error():
    expected = copy.deepcopy(workloads.load_expected("zoo")[:1])
    expected[0]["messages"] += 1
    attempted, failed = score(expected, [_zoo_unit([_first_zoo_cell()])], 0)
    assert failed / attempted > 0


def test_added_output_key_is_not_an_error_but_a_missing_one_is():
    reference = [{"messages": 3, "median_estimate": float("nan")}]
    assert workloads.mismatches(reference, [dict(reference[0], new_key=1)]) == 0
    assert workloads.mismatches(reference, [{"messages": 3}]) == 1
    assert workloads.mismatches(reference, []) == 1


def test_fastest_sums_each_chunks_minimum():
    best = Fastest()
    best.add(Unit(wall_s=5.0, cpu_s=5.0, gaps=[], cells=[], rounds=0, messages=0, bits=0,
                  chunks=[(1.0, 1.0), (4.0, 4.0)]))
    best.add(Unit(wall_s=5.0, cpu_s=4.5, gaps=[], cells=[], rounds=0, messages=0, bits=0,
                  chunks=[(3.0, 2.5), (2.0, 2.0)]))
    assert best.times() == (3.0, 3.0)


def test_fastest_falls_back_to_the_fastest_unit_when_chunks_differ():
    best = Fastest()
    best.add(Unit(wall_s=5.0, cpu_s=4.0, gaps=[], cells=[], rounds=0, messages=0, bits=0,
                  chunks=[(1.0, 1.0), (4.0, 3.0)]))
    best.add(Unit(wall_s=4.5, cpu_s=4.5, gaps=[], cells=[], rounds=0, messages=0, bits=0,
                  chunks=[(4.5, 4.5)]))
    assert best.times() == (4.5, 4.0)


def test_gauge_keeps_its_fastest_round():
    gauge = Gauge()
    gauge.sample()
    first = gauge.fastest
    gauge.sample()
    assert 0 < gauge.fastest <= first
    assert gauge.scale() == REFERENCE_ROUND_S / gauge.fastest


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(workloads.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "local-n512", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert result.stdout.strip() == ""


def test_benchmark_json_names_every_workload():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert all(Path(workloads.ROOT, path).is_dir() for path in spec["paths"])


def test_per_layer_metrics_are_the_ones_benchmark_json_declares():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    unit = _zoo_unit([])
    unit.layers = {"seconds": {}, "counts": {}}
    reported = set(_layer_values(unit, 0.0)) | set(_dispatch_values(None))
    reported |= {"runner.gap_p90_s", "trace.overhead_s"}
    assert reported == {metric["name"] for metric in spec["per_layer"]}
