"""Syntactic fragments of the contract language.

* instantaneous (I): every event time expression is `now + 0`;
* time-ahead (TA): every event time expression is `now + k` with k > 0;
* determinate (D): the initial states of functions and of events are
  disjoint sets;
* determinate-instantaneous (DI): both D and I.

The definitions quantify over the events of a contract, so an event-free
contract lands in every fragment.
"""

from __future__ import annotations

from dataclasses import dataclass

from .syntax import Contract, StateName


@dataclass(frozen=True)
class FragmentSet:
    """Which fragments a contract belongs to."""

    instantaneous: bool
    time_ahead: bool
    determinate: bool

    @property
    def det_instantaneous(self) -> bool:
        return self.determinate and self.instantaneous

    def flags(self) -> tuple[str, ...]:
        out = []
        if self.instantaneous:
            out.append("I")
        if self.time_ahead:
            out.append("TA")
        if self.determinate:
            out.append("D")
        if self.det_instantaneous:
            out.append("DI")
        return tuple(out)


def init_ev(contract: Contract) -> frozenset[StateName]:
    """The set of initial (source) states of all events in the contract."""
    return contract.init_ev


def classify(contract: Contract) -> FragmentSet:
    """Decide membership in the I, TA, and D fragments (DI is derived)."""
    delays = {ev.time.offset for ev in contract.events()}
    return FragmentSet(
        instantaneous=delays <= {0},
        time_ahead=0 not in delays,
        determinate=contract.init_ev.isdisjoint([fn.source for fn in contract.functions]),
    )
