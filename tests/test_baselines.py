"""Tests for the non-Byzantine-resilient baselines (Section 1.2 motivation).

The baselines run as registered protocols, read through the finite-estimate
:class:`BaselineOutcome` view that experiment E7 uses.
"""

import math

import pytest

from repro.baselines import BaselineOutcome
from repro.baselines.common import parse_value, value_payload
from repro.graphs.hnd import hnd_random_regular_graph
from repro.scenarios import run_protocol
from repro.simulator.messages import Message


@pytest.fixture(scope="module")
def graph():
    return hnd_random_regular_graph(128, 8, seed=23)


def baseline(name, graph, *, byzantine=(), attack=None, seed=0):
    """Run the registered baseline ``name``; ``attack`` is a value-faking mode."""
    run = run_protocol(
        name,
        graph,
        byzantine=set(byzantine),
        behaviour="value-faking" if attack else "silent",
        behaviour_params={"mode": attack} if attack else {},
        seed=seed,
    )
    return BaselineOutcome.of(name, run.outcome)


class TestCommonHelpers:
    def test_value_payload_roundtrip(self):
        m = value_payload("tag", 3.5)
        assert parse_value(m, "tag") == 3.5

    def test_parse_value_wrong_tag(self):
        m = value_payload("tag", 3.5)
        assert parse_value(m, "other") is None

    def test_parse_value_bare_float_accepted(self):
        m = Message(kind="estimate", payload=7.0)
        assert parse_value(m, "anything") == 7.0

    def test_parse_value_wrong_kind(self):
        assert parse_value(Message(kind="beacon", payload=1.0), "tag") is None

    def test_outcome_statistics(self):
        outcome = BaselineOutcome(
            name="x", n=100, estimates={0: math.log(100), 1: None, 2: 50.0},
            rounds_executed=5, total_messages=10,
        )
        assert outcome.decided_fraction() == pytest.approx(2 / 3)
        assert outcome.median_relative_error() is not None
        assert 0 < outcome.fraction_within_factor(0.9, 1.1) < 1
        assert set(outcome.summary()) >= {"baseline", "n", "median_estimate"}


class TestBenignAccuracy:
    def test_geometric_close_to_log_n(self, graph):
        # The max of n geometric samples is log2(n) + a heavy-tailed O(1)
        # fluctuation, so a single benign run is only a constant-factor
        # estimate -- which is all the paper claims for it.
        outcome = baseline("geometric", graph, seed=1)
        assert outcome.decided_fraction() == 1.0
        assert 0.5 * math.log(graph.n) <= outcome.median_estimate() <= 3.0 * math.log(graph.n)

    def test_support_estimation_accurate(self, graph):
        outcome = baseline("support-estimation", graph, seed=1)
        assert outcome.decided_fraction() == 1.0
        assert outcome.median_relative_error() < 0.3

    def test_spanning_tree_exact(self, graph):
        outcome = baseline("spanning-tree", graph, seed=1)
        assert outcome.decided_fraction() == 1.0
        assert outcome.median_estimate() == pytest.approx(math.log(graph.n), abs=1e-6)

    def test_flooding_diameter_logarithmic(self, graph):
        outcome = baseline("flooding", graph, seed=1)
        assert outcome.decided_fraction() == 1.0
        assert 2 <= outcome.median_estimate() <= 2 * math.log(graph.n)

    def test_all_nodes_agree_on_spanning_tree_count(self, graph):
        outcome = baseline("spanning-tree", graph, seed=2)
        values = {round(v, 6) for v in outcome.estimates.values() if v is not None}
        assert len(values) == 1


class TestSingleByzantineBreaksBaselines:
    def test_geometric_inflated(self, graph):
        attacked = baseline("geometric", graph, byzantine={0}, attack="inflate", seed=1)
        assert attacked.median_relative_error() > 10

    def test_support_estimation_destroyed_by_deflation(self, graph):
        attacked = baseline(
            "support-estimation", graph, byzantine={0}, attack="deflate", seed=1
        )
        # Minima forced to zero make the estimate infinite (no finite answer).
        assert attacked.decided_fraction() < 0.1

    def test_spanning_tree_inflated(self, graph):
        clean = baseline("spanning-tree", graph, seed=1)
        attacked = baseline("spanning-tree", graph, byzantine={0}, attack="inflate", seed=1)
        assert attacked.median_estimate() > clean.median_estimate() + 1.0

    def test_flooding_inflated(self, graph):
        attacked = baseline("flooding", graph, byzantine={0}, attack="inflate", seed=1)
        assert attacked.median_relative_error() > 10

    def test_byzantine_node_not_in_estimates(self, graph):
        attacked = baseline("geometric", graph, byzantine={5}, attack="inflate", seed=1)
        assert 5 not in attacked.estimates
