"""Protocol-zoo gate (``make zoo-demo``; a prerequisite of ``make test``).

Three assertions, all byte-for-byte:

1. the committed cross-protocol suite (``examples/scenario_zoo_compare.json``
   -- five families on one shared graph x adversary x placement grid, pure
   JSON, zero driver code) regenerates ``tests/golden/zoo_compare_table.txt``;
2. the committed paper suite (``examples/scenario_e2_small.json``)
   regenerates ``tests/golden/e2_small_table.txt`` -- proving the registry
   refactor that folded the zoo into ``PROTOCOLS`` is inert for the paper's
   protocols;
3. one mini cell per registered protocol (:data:`MINI_PARAMS`, n=16, one
   Byzantine node under the behaviour aimed at it) regenerates the full
   metrics dicts pinned in ``tests/golden/registry_mini_metrics.txt`` --
   the pin that every protocol's run path, not only the five in the zoo
   table, stays inert under refactoring.

On success it also prints the per-protocol summary of the zoo table
(:func:`repro.analysis.comparison.render_protocol_comparison`) -- the
side-by-side fault-tolerance comparison the zoo exists for.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, Mapping, Optional

from repro.analysis.comparison import render_protocol_comparison
from repro.scenarios import PROTOCOLS, materialize
from repro.scenarios.suite import ScenarioSuite

REPO = Path(__file__).resolve().parents[3]
EXAMPLES = REPO / "examples"
GOLDEN = REPO / "tests" / "golden"

#: (suite spec, golden table) pairs checked byte-for-byte.
GATES = (
    ("scenario_zoo_compare.json", "zoo_compare_table.txt"),
    ("scenario_e2_small.json", "e2_small_table.txt"),
)


#: Mini-scenario protocol params per registered protocol (n=16, degree 4).
MINI_PARAMS: Dict[str, Dict[str, Any]] = {
    "local": {"gamma": 0.7, "max_degree": 4},
    "congest": {"gamma": 0.5, "d": 4, "max_rounds": 150},
    "benor": {"f": 1, "max_phases": 30},
    "grouped-bft": {"f": 1, "groups": 1},
    "flooding": {},
    "geometric": {},
    "spanning-tree": {},
    "support-estimation": {},
}

#: The behaviour (and its params) each registry-golden cell runs; the
#: default is ``value-faking``, the attack on the Section 1.2 baselines.
#: Deflation drives support estimation to infinite estimates.
MINI_BEHAVIOURS = {
    "local": ("inconsistent", {}),
    "congest": ("path-tamper", {}),
    "benor": ("silent", {}),
    "grouped-bft": ("silent", {}),
    "support-estimation": ("value-faking", {"mode": "deflate"}),
}

REGISTRY_GOLDEN = "registry_mini_metrics.txt"


def mini_scenario(
    protocol: str,
    params: Mapping[str, Any],
    *,
    n: int = 16,
    count: int = 0,
    behaviour: str = "silent",
    behaviour_params: Optional[Mapping[str, Any]] = None,
) -> Dict[str, Any]:
    """A one-cell scenario spec of ``protocol`` on H(n, 4)."""
    return {
        "name": f"mini-{protocol}",
        "graph": {"name": "hnd", "params": {"n": n, "degree": 4}, "seed_offset": 0},
        "adversary": {
            "name": behaviour,
            "params": dict(behaviour_params or {}),
            "seed_offset": 0,
        },
        "placement": {"name": "spread", "params": {"count": count}, "seed_offset": 0},
        "protocol": {"name": protocol, "params": dict(params), "seed_offset": 0},
        "params": {},
    }


def render_registry_metrics(seed: int = 0) -> str:
    """One line per registered protocol: its mini cell's full metrics dict."""
    lines = []
    for name in PROTOCOLS.names():
        behaviour, behaviour_params = MINI_BEHAVIOURS.get(name, ("value-faking", {}))
        spec = mini_scenario(
            name,
            MINI_PARAMS[name],
            count=1,
            behaviour=behaviour,
            behaviour_params=behaviour_params,
        )
        metrics = materialize(spec, seed).metrics
        lines.append(
            f"{name} [{behaviour} {json.dumps(behaviour_params, sort_keys=True)}] "
            f"{json.dumps(metrics, sort_keys=True)}"
        )
    return "\n".join(lines) + "\n"


def _run_suite(spec_path: Path):
    suite = ScenarioSuite.from_json(spec_path.read_text(encoding="utf-8"))
    return suite.run()


def _matches(label: str, rendered: str, golden_name: str) -> bool:
    """Compare ``rendered`` with a golden byte for byte, reporting either way."""
    expected = (GOLDEN / golden_name).read_text(encoding="utf-8")
    if rendered != expected:
        sys.stderr.write(
            f"zoo-demo FAIL: {label} no longer regenerates {golden_name} "
            "byte-for-byte\n"
        )
        sys.stderr.write("--- expected ---\n" + expected)
        sys.stderr.write("--- got ---\n" + rendered)
        return False
    print(f"zoo-demo: {label} == {golden_name} (byte-identical)")
    return True


def main() -> int:
    zoo_result = None
    for spec_name, golden_name in GATES:
        result = _run_suite(EXAMPLES / spec_name)
        if spec_name.startswith("scenario_zoo"):
            zoo_result = result
        # ``scenario run`` prints ``result.render()`` followed by a newline;
        # the goldens are captured CLI stdout, so compare against exactly that.
        if not _matches(spec_name, result.render() + "\n", golden_name):
            return 1
    if not _matches("registry mini cells", render_registry_metrics(), REGISTRY_GOLDEN):
        return 1

    if zoo_result is not None:
        print()
        print(render_protocol_comparison(zoo_result.rows))
    print(
        "zoo-demo ok: cross-protocol suite, paper suite and registry mini "
        "cells all regenerate their goldens"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
