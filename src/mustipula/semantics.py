"""Small-step operational semantics of contracts.

A configuration is a tuple (state, sigma, psi) plus a clock value.  Sigma is
either empty or a continuation `W => Q'` produced by invoking a clause; psi
is a multiset of pending events.  Four rules drive execution:

* Function      - invoke `@Q f { W } => @Q'` when sigma is empty and no
                  event is firable at Q (`nored`); sigma becomes the lowered
                  body `W => Q'`.
* Event-Match   - a pending event with delay 0 whose source is the current
                  state fires; sigma becomes `-- => Q'`.  Firable events
                  preempt both function invocation and time progression.
* State-Change  - a continuation `W => Q'` commits: the state becomes Q' and
                  W is merged into psi.
* Tick          - time progresses: delays decrease by one and elapsed events
                  are garbage-collected.  The tick-plus variant additionally
                  requires the current state to be outside InitEv(C).

No rule reads the clock; it is carried for trace readability only.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .syntax import Contract, EventDecl, StateName


class PendingEvent(NamedTuple):
    """A scheduled timed continuation: fire a source->target transition once
    `delay` ticks have elapsed.  `line` is the line-code of the declaration
    that created it."""

    delay: int
    line: int
    source: StateName
    target: StateName


class PendingSet(tuple):
    """Multiset of pending events, kept canonically sorted so that equality
    and hashing ignore order."""

    def __new__(cls, events: Iterable[PendingEvent] = ()):
        return super().__new__(cls, sorted(events))

    def union(self, other: Iterable[PendingEvent]) -> "PendingSet":
        return PendingSet(tuple.__add__(self, tuple(other)))

    def remove_one(self, event: PendingEvent) -> "PendingSet":
        events = list(self)
        events.remove(event)
        return PendingSet(events)

    def issubmultiset(self, other: "PendingSet") -> bool:
        events = list(other)
        for ev in self:
            if ev in events:
                events.remove(ev)
            else:
                return False
        return True

    def minus(self, other: Iterable[PendingEvent]) -> "PendingSet":
        """Multiset difference, saturating at empty."""
        events = list(self)
        for ev in other:
            if ev in events:
                events.remove(ev)
        return PendingSet(events)


EMPTY_PSI = PendingSet()


class Body(NamedTuple):
    """A non-empty continuation `events => target`."""

    events: PendingSet
    target: StateName


# Sigma is either None (empty) or a Body.
Continuation = Body | None


@dataclass(frozen=True)
class Configuration:
    """Runtime state of a contract: (state, sigma, psi) plus the clock.

    The contract itself rides along for rule lookup but takes no part in
    equality or hashing.
    """

    contract: Contract = field(compare=False, repr=False, hash=False)
    state: StateName = ""
    sigma: Continuation = None
    psi: PendingSet = EMPTY_PSI
    clock: int = 0


@dataclass(frozen=True)
class Label:
    """Transition label.

    kind is "call", "event", "tick", or "statechange".  The tick and
    state-change labels are both silent in the calculus; they are kept apart
    so traces can name the rule that fired.
    """

    kind: str
    name: str | None = None  # function name when kind == "call"
    line: int | None = None  # event line-code when kind == "event"

    @property
    def silent(self) -> bool:
        return self.kind in ("tick", "statechange")

    def text(self) -> str:
        if self.kind == "call":
            return f"call:{self.name}"
        if self.kind == "event":
            return f"ev:{self.line}"
        return self.kind


class Mode(enum.Enum):
    """Which time-progression rule the semantics uses."""

    TICK = "tick"
    TICK_PLUS = "tickplus"

    @classmethod
    def of(cls, text: str) -> "Mode":
        for mode in cls:
            if mode.value == text:
                return mode
        raise ValueError(f"unknown mode {text!r}")


def initial_config(contract: Contract) -> Configuration:
    """The starting configuration: initial state, no continuation, no
    pending events, clock 0."""
    return Configuration(contract, contract.init, None, EMPTY_PSI, 0)


def nored(psi: PendingSet, state: StateName) -> bool:
    """True iff no pending event is firable at `state`, i.e. psi holds no
    element with delay 0 and source equal to `state`."""
    return not any(ev.delay == 0 and ev.source == state for ev in psi)


def decrement(psi: PendingSet) -> PendingSet:
    """One tick's effect on the pending multiset: delay-0 events are
    garbage-collected, every other delay decreases by one."""
    return PendingSet(
        PendingEvent(ev.delay - 1, ev.line, ev.source, ev.target)
        for ev in psi
        if ev.delay > 0
    )


def lower(body: Iterable[EventDecl]) -> PendingSet:
    """Turn a function body (a sequence of event declarations) into the
    multiset of pending events it schedules: `now` is dropped, leaving the
    constant offset as the delay."""
    return PendingSet(
        PendingEvent(ev.time.offset, ev.line, ev.source, ev.target) for ev in body
    )


def successors(cfg: Configuration, mode: Mode = Mode.TICK) -> list[tuple[Label, Configuration]]:
    """All enabled one-step transitions from `cfg`, in a fixed order:
    firable events by line-code, then functions in declaration order, then
    the tick.  A non-empty sigma yields exactly one state-change."""
    contract, state, psi, clock = cfg.contract, cfg.state, cfg.psi, cfg.clock
    if cfg.sigma is not None:
        body_events, target = cfg.sigma
        nxt = Configuration(contract, target, None, psi.union(body_events), clock)
        return [(Label("statechange"), nxt)]

    out = []
    firable = sorted(
        {ev for ev in psi if ev.delay == 0 and ev.source == state},
        key=lambda ev: ev.line,
    )
    for ev in firable:
        sigma = Body(EMPTY_PSI, ev.target)
        nxt = Configuration(contract, state, sigma, psi.remove_one(ev), clock)
        out.append((Label("event", line=ev.line), nxt))
    if firable:
        # Firable events preempt function invocation and time progression.
        return out

    for fn in contract.by_source.get(state, ()):
        nxt = Configuration(contract, state, Body(fn.lowered, fn.target), psi, clock)
        out.append((Label("call", name=fn.name), nxt))

    if mode is Mode.TICK or state not in contract.init_ev:
        nxt = Configuration(contract, state, None, decrement(psi), clock + 1)
        out.append((Label("tick"), nxt))
    return out


def is_stuck(cfg: Configuration) -> bool:
    """Whether only tick transitions are ever enabled from `cfg` under the
    plain tick rule.  Terminates because each tick strictly shrinks the
    total pending delay until psi empties and the configuration repeats."""
    current = cfg
    while True:
        steps = successors(current, Mode.TICK)
        if any(label.kind != "tick" for label, _ in steps):
            return False
        if not steps:
            return True
        nxt = steps[0][1]
        if not nxt.psi:
            # (Q, --, --) ticks to itself forever.
            return not any(
                label.kind != "tick" for label, _ in successors(nxt, Mode.TICK)
            )
        current = nxt


class TraceStep(NamedTuple):
    label: Label
    config: Configuration


@dataclass(frozen=True)
class Trace:
    """A finite run: the labelled steps taken from some start configuration.
    Each step records the configuration reached."""

    steps: tuple[TraceStep, ...]

    def labels(self) -> list[str]:
        return [step.label.text() for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


def run_random(
    contract: Contract, steps: int, seed: int, mode: Mode = Mode.TICK
) -> Trace:
    """Sample a run of at most `steps` transitions, picking uniformly among
    the enabled successors with the given seed.  Deterministic in
    (contract, steps, seed, mode); stops early when no successor exists."""
    rng = random.Random(seed)
    cfg = initial_config(contract)
    taken = []
    for _ in range(steps):
        options = successors(cfg, mode)
        if not options:
            break
        label, cfg = rng.choice(options)
        taken.append(TraceStep(label, cfg))
    return Trace(tuple(taken))


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


def _psi_json(psi: PendingSet) -> list:
    return [[ev.delay, ev.line, ev.source, ev.target] for ev in psi]


def _sigma_json(sigma: Continuation):
    if sigma is None:
        return None
    return {"events": _psi_json(sigma.events), "target": sigma.target}


def trace_payload(trace: Trace) -> list:
    """The JSON-ready form of a trace: one object per step with the label,
    the reached state, sigma, psi, and the clock."""
    return [
        {
            "label": step.label.text(),
            "state": step.config.state,
            "sigma": _sigma_json(step.config.sigma),
            "psi": _psi_json(step.config.psi),
            "clock": step.config.clock,
        }
        for step in trace.steps
    ]


def trace_json(trace: Trace) -> str:
    """Canonical JSON text for a trace (stable key order, compact)."""
    return json.dumps(trace_payload(trace), separators=(",", ":"))
