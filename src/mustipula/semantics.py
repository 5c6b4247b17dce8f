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

`moves` is the one transition function, over the packed parts (state,
sigma, psi); `successors` and `run_random` build configurations from it.
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

    __slots__ = ()

    def __new__(cls, events: Iterable[PendingEvent] = ()):
        return super().__new__(cls, sorted(events))

    def union(self, other: Iterable[PendingEvent]) -> "PendingSet":
        if not other:
            return self
        return PendingSet(tuple.__add__(self, tuple(other)))

    def remove_one(self, event: PendingEvent) -> "PendingSet":
        i = self.index(event)
        return _sorted(self[:i] + self[i + 1 :])

    def issubmultiset(self, other: "PendingSet") -> bool:
        """Multiset inclusion, by one merge of the two sorted tuples: self
        is included iff it is a subsequence of other."""
        if len(self) > len(other):
            return False
        rest = iter(other)
        for ev in self:
            for o in rest:
                if o == ev:
                    break
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


def _sorted(events: tuple) -> PendingSet:
    """Wrap a tuple that is already in canonical order, without sorting."""
    return tuple.__new__(PendingSet, events)


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


TICK = Label("tick")
STATECHANGE = Label("statechange")


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


def firable(psi: PendingSet, state: StateName) -> list[PendingEvent]:
    """The distinct pending events firable at `state` (delay 0, source
    `state`), by line-code.  Psi is sorted, so they lie in its delay-0
    prefix in line order, with equal copies adjacent."""
    out = []
    for ev in psi:
        if ev.delay:
            break
        if ev.source == state and (not out or out[-1] != ev):
            out.append(ev)
    return out


def nored(psi: PendingSet, state: StateName) -> bool:
    """True iff no pending event is firable at `state`, i.e. psi holds no
    element with delay 0 and source equal to `state`."""
    return not firable(psi, state)


def decrement(psi: PendingSet) -> PendingSet:
    """One tick's effect on the pending multiset: delay-0 events are
    garbage-collected, every other delay decreases by one.  Lowering every
    remaining delay by one keeps the canonical order."""
    return _sorted(
        tuple([PendingEvent(ev.delay - 1, ev.line, ev.source, ev.target) for ev in psi if ev.delay])
    )


def lower(body: Iterable[EventDecl]) -> PendingSet:
    """Turn a function body (a sequence of event declarations) into the
    multiset of pending events it schedules: `now` is dropped, leaving the
    constant offset as the delay."""
    return PendingSet(
        PendingEvent(ev.time.offset, ev.line, ev.source, ev.target) for ev in body
    )


# A move is one enabled transition over the packed parts of a configuration:
# (label, state', sigma', psi', ticks), where `ticks` is what it adds to the
# clock (1 for a tick, else 0).
Move = tuple[Label, StateName, Continuation, PendingSet, int]


def moves(
    contract: Contract,
    state: StateName,
    sigma: Continuation,
    psi: PendingSet,
    mode: Mode = Mode.TICK,
) -> list[Move]:
    """All enabled one-step transitions from (state, sigma, psi), in a fixed
    order: firable events by line-code, then functions in declaration order,
    then the tick.  A non-empty sigma yields exactly one state-change."""
    if sigma is not None:
        body_events, target = sigma
        return [(STATECHANGE, target, None, psi.union(body_events), 0)]

    events = firable(psi, state)
    if events:
        # Firable events preempt function invocation and time progression.
        return [
            (Label("event", line=ev.line), state, Body(EMPTY_PSI, ev.target), psi.remove_one(ev), 0)
            for ev in events
        ]

    out: list[Move] = []
    for fn in contract.by_source.get(state, ()):
        label, body = fn.call
        out.append((label, state, body, psi, 0))
    if mode is Mode.TICK or state not in contract.init_ev:
        out.append((TICK, state, None, decrement(psi), 1))
    return out


def successors(cfg: Configuration, mode: Mode = Mode.TICK) -> list[tuple[Label, Configuration]]:
    """The moves from `cfg`, in the same order, as configurations."""
    contract, clock = cfg.contract, cfg.clock
    return [
        (label, Configuration(contract, state, sigma, psi, clock + ticks))
        for label, state, sigma, psi, ticks in moves(contract, cfg.state, cfg.sigma, cfg.psi, mode)
    ]


def is_stuck(cfg: Configuration) -> bool:
    """Whether only tick transitions are ever enabled from `cfg` under the
    plain tick rule.  Ticks keep the state and only shrink psi, so that
    holds exactly when sigma is empty, no function leaves the state, and no
    pending event has the state as source (it would fire at delay 0)."""
    state = cfg.state
    return (
        cfg.sigma is None
        and state not in cfg.contract.by_source
        and all(ev.source != state for ev in cfg.psi)
    )


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
    state, sigma, psi, clock = contract.init, None, EMPTY_PSI, 0
    taken = []
    for _ in range(steps):
        options = moves(contract, state, sigma, psi, mode)
        if not options:
            break
        label, state, sigma, psi, ticks = rng.choice(options)
        clock += ticks
        taken.append(TraceStep(label, Configuration(contract, state, sigma, psi, clock)))
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
