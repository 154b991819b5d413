"""Shared result view and message helpers for the baseline estimators."""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Dict, Optional

from repro.core.estimate import CountingOutcome
from repro.simulator.messages import Message

__all__ = ["BaselineOutcome", "value_payload", "parse_value"]


def value_payload(kind_tag: str, value: float) -> Message:
    """A small message carrying one numeric protocol value."""
    return Message(kind="estimate", payload=(kind_tag, float(value)), size_bits=64, num_ids=0)


def parse_value(message: Message, kind_tag: str) -> Optional[float]:
    """Extract a numeric value from an ``estimate`` message.

    Honest senders use ``(kind_tag, value)`` tuples.  Byzantine senders (the
    :class:`~repro.adversary.strategies.ValueFakingAdversary`) send bare
    floats; these are interpreted as a claimed value of whatever protocol the
    receiver runs -- which is exactly the attack the baseline has no defence
    against.
    """
    if message.kind != "estimate":
        return None
    payload = message.payload
    if isinstance(payload, tuple) and len(payload) == 2 and payload[0] == kind_tag:
        try:
            return float(payload[1])
        except (TypeError, ValueError):
            return None
    if isinstance(payload, (int, float)) and not isinstance(payload, bool):
        return float(payload)
    return None


@dataclass
class BaselineOutcome:
    """Outcome of a baseline run: per-node estimates of ``ln n``.

    Estimates of ``None`` mean the node produced no estimate (e.g. the flood
    never reached it).
    """

    name: str
    n: int
    estimates: Dict[int, Optional[float]]
    rounds_executed: int
    total_messages: int

    @property
    def log_n(self) -> float:
        """True ``ln n``."""
        return math.log(max(self.n, 2))

    def decided_fraction(self) -> float:
        """Fraction of honest nodes with a (finite) estimate."""
        if not self.estimates:
            return 0.0
        ok = sum(
            1
            for e in self.estimates.values()
            if e is not None and math.isfinite(e)
        )
        return ok / len(self.estimates)

    def median_estimate(self) -> Optional[float]:
        """Median finite estimate (None if there is none)."""
        values = [
            e for e in self.estimates.values() if e is not None and math.isfinite(e)
        ]
        return statistics.median(values) if values else None

    def median_relative_error(self) -> Optional[float]:
        """Median of ``|estimate - ln n| / ln n`` over finite estimates."""
        values = [
            abs(e - self.log_n) / self.log_n
            for e in self.estimates.values()
            if e is not None and math.isfinite(e)
        ]
        return statistics.median(values) if values else None

    def fraction_within_factor(self, lower: float, upper: float) -> float:
        """Fraction of nodes whose estimate lies in ``[lower·ln n, upper·ln n]``."""
        if not self.estimates:
            return 0.0
        low, high = lower * self.log_n, upper * self.log_n
        ok = sum(
            1
            for e in self.estimates.values()
            if e is not None and math.isfinite(e) and low <= e <= high
        )
        return ok / len(self.estimates)

    @classmethod
    def of(cls, name: str, outcome: CountingOutcome) -> "BaselineOutcome":
        """The finite-estimate view of a run's :class:`CountingOutcome`.

        Unlike the outcome's own statistics, an infinite estimate (support
        estimation under deflation) counts as no estimate at all.
        """
        return cls(
            name=name,
            n=outcome.n,
            estimates={u: record.estimate for u, record in outcome.records.items()},
            rounds_executed=outcome.rounds_executed,
            total_messages=outcome.total_messages,
        )

    def summary(self) -> Dict[str, object]:
        """Row for the experiment tables."""
        return {
            "baseline": self.name,
            "n": self.n,
            "decided_fraction": round(self.decided_fraction(), 3),
            "median_estimate": self.median_estimate(),
            "log_n": round(self.log_n, 3),
            "median_relative_error": self.median_relative_error(),
            "rounds": self.rounds_executed,
        }
