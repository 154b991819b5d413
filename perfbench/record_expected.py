"""Regenerate ``expected.json``: the checked outputs of every workload at the default seed.

Run from the root of a source checkout::

    python3 perfbench/record_expected.py

Only do this when the program's outputs change on purpose; the benchmark
counts every cell that differs from this file as an error.  The ``zoo``
entry (in suite order) is recorded from the serial sweep, so the traced
run's distributed sweep is checked against serial execution.
"""

import json

import workloads


def main() -> None:
    seed = workloads.DEFAULT_SEED
    expected = {}
    for name in ("local-n512", "congest-flood-n512", "zoo-sweep"):
        workload = workloads.WORKLOADS[name]
        state = workload.setup(seed)
        cells = workload.run_unit(state).cells
        if "order" in state:
            # Store sweep cells in suite order, whatever order the seed drew.
            cells = [cell for _, cell in sorted(zip(state["order"], cells))]
        expected[workload.expected_key] = cells
    with workloads.EXPECTED_PATH.open("w") as handle:
        handle.write("{\n")
        for position, (key, cells) in enumerate(expected.items()):
            lines = ",\n".join("  " + json.dumps(cell, sort_keys=True) for cell in cells)
            comma = "," if position < len(expected) - 1 else ""
            handle.write(f"{json.dumps(key)}: [\n{lines}\n]{comma}\n")
        handle.write("}\n")


if __name__ == "__main__":
    main()
