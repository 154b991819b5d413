#!/usr/bin/env python3
"""Scenario: a peer-to-peer overlay wants to size itself before reconfiguring.

The paper's introduction motivates Byzantine counting with decentralized
peer-to-peer protocols whose other building blocks (random-walk sampling,
majority gossip, DHT sizing) all need a constant-factor estimate of ``log n``.
This example plays out that scenario:

1. an operator-less overlay of unknown size is built as an ``H(n, d)`` graph;
2. the classical estimators (geometric max-propagation, spanning-tree count)
   are run first -- they are exact while every peer is honest;
3. a small botnet of Byzantine peers joins and re-runs everything, breaking
   the classical estimators while Algorithm 2 keeps a constant-factor answer
   using only small messages.

Run with::

    python examples/p2p_size_estimation.py
"""

from __future__ import annotations

import math

from repro import CongestParameters, hnd_random_regular_graph
from repro.adversary import random_placement
from repro.analysis.tables import render_table
from repro.scenarios import run_protocol


def main() -> None:
    n, degree, seed = 512, 8, 7
    graph = hnd_random_regular_graph(n, degree, seed=seed)
    log_n = math.log(n)
    rows = []

    def run(protocol, byzantine, behaviour, **params):
        return run_protocol(
            protocol,
            graph,
            byzantine=byzantine,
            behaviour=behaviour,
            behaviour_params={},
            seed=seed,
            **params,
        )

    # Phase 1: all peers honest.
    geo = run("geometric", set(), "silent")
    tree = run("spanning-tree", set(), "silent")
    alg2 = run("congest", set(), "silent", d=degree)
    rows.append({
        "scenario": "honest overlay",
        "geometric est.": round(geo.outcome.median_estimate() or float("nan"), 2),
        "spanning-tree est.": round(tree.outcome.median_estimate() or float("nan"), 2),
        "algorithm 2 est.": alg2.outcome.median_estimate(),
        "true ln n": round(log_n, 2),
    })

    # Phase 2: a small botnet joins (3 Byzantine peers).
    byzantine = random_placement(graph, 3, seed=seed + 1)
    geo_attacked = run("geometric", byzantine, "value-faking")
    tree_attacked = run("spanning-tree", byzantine, "value-faking")
    alg2_attacked = run(
        "congest",
        byzantine,
        "beacon-flood",
        d=degree,
        max_rounds=CongestParameters(d=degree).rounds_through_phase(
            int(math.ceil(log_n)) + 1
        ),
    )
    rows.append({
        "scenario": "3 Byzantine peers",
        "geometric est.": round(geo_attacked.outcome.median_estimate() or float("nan"), 2),
        "spanning-tree est.": round(tree_attacked.outcome.median_estimate() or float("nan"), 2),
        "algorithm 2 est.": alg2_attacked.outcome.median_estimate(),
        "true ln n": round(log_n, 2),
    })

    print(render_table(rows, title="Estimating ln(n) of a peer-to-peer overlay"))
    print()
    print("The classical estimators report whatever the Byzantine peers inject;")
    print("Algorithm 2's median estimate stays a constant factor of ln n, and "
          f"{alg2_attacked.outcome.decided_fraction():.0%} of honest peers decided.")


if __name__ == "__main__":
    main()
