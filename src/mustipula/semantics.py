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

`_enabled` and `_take` are the rules over the parts (state, sigma, psi):
the first lists the enabled rule instances unbuilt, the second builds the
move of one.  `successors` builds every option; `random_steps` draws one
option and builds only that.  Both emit a configuration at every step and
hash none, so interning the parts cannot pay there.  The forward search,
which hashes every configuration it meets and builds configurations only
for its output, runs the same rules on interned ids in `forward`.
"""

from __future__ import annotations

import enum
import json
import random
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple

from .syntax import Contract, EventDecl, FunctionDecl, StateName


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

    # An empty operand or result shares an existing set: a walk keeps every
    # step's psi, so each new set is one more object for the collector.  A
    # tuple operand, such as every `Body.events`, is concatenated uncopied.
    def union(self, other: Iterable[PendingEvent]) -> "PendingSet":
        if not other:
            return self
        if not self and type(other) is PendingSet:
            return other
        return _sorted(sorted(self + (other if isinstance(other, tuple) else tuple(other))))

    def remove_one(self, event: PendingEvent) -> "PendingSet":
        i = self.index(event)
        if len(self) == 1:
            return EMPTY_PSI
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


def _sorted(events: Iterable[PendingEvent]) -> PendingSet:
    """Wrap events that are already in canonical order, without sorting."""
    return tuple.__new__(PendingSet, events)


EMPTY_PSI = PendingSet()


class Body(NamedTuple):
    """A non-empty continuation `events => target`."""

    events: PendingSet
    target: StateName


# Sigma is either None (empty) or a Body.
Continuation = Body | None


# Configuration and Label are filled through their slots' descriptors, as
# syntax.EventDecl is: about half the cost of `object.__setattr__` per field.
@dataclass(frozen=True, slots=True, init=False)
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

    def __init__(self, contract, state="", sigma=None, psi=EMPTY_PSI, clock=0):
        _set_contract(self, contract)
        _set_state(self, state)
        _set_sigma(self, sigma)
        _set_psi(self, psi)
        _set_clock(self, clock)


_set_contract, _set_state, _set_sigma, _set_psi, _set_clock = (
    Configuration.__dict__[name].__set__
    for name in ("contract", "state", "sigma", "psi", "clock")
)


@dataclass(frozen=True, slots=True, init=False)
class Label:
    """Transition label.

    kind is "call", "event", "tick", or "statechange".  The tick and
    state-change labels are both silent in the calculus; they are kept apart
    so traces can name the rule that fired.
    """

    kind: str
    name: str | None = None  # function name when kind == "call"
    line: int | None = None  # event line-code when kind == "event"

    def __init__(self, kind, name=None, line=None):
        _set_kind(self, kind)
        _set_name(self, name)
        _set_line(self, line)

    def text(self) -> str:
        if self.kind == "call":
            return f"call:{self.name}"
        if self.kind == "event":
            return f"ev:{self.line}"
        return self.kind


_set_kind, _set_name, _set_line = (
    Label.__dict__[name].__set__ for name in ("kind", "name", "line")
)


TICK = Label("tick")
STATECHANGE = Label("statechange")


class Mode(enum.Enum):
    """Which time-progression rule the semantics uses."""

    TICK = "tick"
    TICK_PLUS = "tickplus"


def initial_config(contract: Contract) -> Configuration:
    """The starting configuration: initial state, no continuation, no
    pending events, clock 0."""
    return Configuration(contract, contract.init, None, EMPTY_PSI, 0)


def firable(psi: PendingSet, state: StateName) -> list[PendingEvent]:
    """The distinct pending events firable at `state` (delay 0, source
    `state`), by line-code.  Psi is sorted, so they lie in its delay-0
    prefix in line order, with equal copies adjacent."""
    return _firable(psi, state) or []


def _firable(psi: PendingSet, state: StateName) -> list[PendingEvent] | None:
    """`firable`, but None when nothing fires, so that a walk builds no
    list on the steps where nothing does."""
    out = None
    for ev in psi:
        if ev.delay:
            break
        if ev.source == state:
            if out is None:
                out = [ev]
            elif out[-1] != ev:
                out.append(ev)
    return out


def nored(psi: PendingSet, state: StateName) -> bool:
    """True iff no pending event is firable at `state`, i.e. psi holds no
    element with delay 0 and source equal to `state`."""
    return not firable(psi, state)


def decrement(psi: PendingSet, lowered: dict | None = None) -> PendingSet:
    """One tick's effect on the pending multiset: delay-0 events are
    garbage-collected, every other delay decreases by one.  Lowering every
    remaining delay by one keeps the canonical order.  An empty result is
    `EMPTY_PSI`.  `lowered` maps each event met so far to its lowered copy;
    a walk passes one per contract, so that its ticks share event objects
    instead of building a new one per event and tick."""
    if not psi:
        return psi
    if lowered is None:
        lowered = {}
    out = []
    for ev in psi:
        if ev.delay:
            low = lowered.get(ev)
            if low is None:
                # `tuple.__new__` builds an event at about half the cost of
                # the NamedTuple constructor, and an 800-step walk on a
                # 1,000-function contract lowers about 400 events.
                low = lowered[ev] = tuple.__new__(PendingEvent, (ev.delay - 1, *ev[1:]))
            out.append(low)
    return _sorted(out) if out else EMPTY_PSI


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


class _Rules:
    """The rules of one contract under one mode, with the parts of moves
    that `_enabled` and `_take` build on first use and then reuse: per
    state, the options when sigma is empty and nothing fires; per pending
    event, the (Label, Body) of its firing and its copy lowered by a tick.
    Each contract keeps one per mode in `Contract.memo`, so none outlives
    its contract, and a walk keeps one object per part, not one per step.
    It holds no reference to the contract, so it closes no cycle."""

    __slots__ = ("by_source", "no_tick", "idle", "fires", "lowered")

    def __init__(self, contract: Contract, mode: Mode):
        self.by_source = contract.by_source
        # Where the mode allows no tick: the states of InitEv, under tick-plus.
        self.no_tick = contract.init_ev if mode is Mode.TICK_PLUS else frozenset()
        self.idle: dict[StateName, tuple] = {}
        self.fires: dict[PendingEvent, tuple[Label, Body]] = {}
        self.lowered: dict[PendingEvent, PendingEvent] = {}

    def idle_options(self, state: StateName) -> tuple:
        options = self.by_source.get(state, ())
        if state not in self.no_tick:
            options = (*options, TICK)
        self.idle[state] = options
        return options

    def fire(self, ev: PendingEvent) -> tuple[Label, Body]:
        fire = self.fires[ev] = (Label("event", line=ev.line), Body(EMPTY_PSI, ev.target))
        return fire


def _rules(contract: Contract, mode: Mode) -> _Rules:
    rules = contract.memo.get(mode)
    if rules is None:
        rules = contract.memo[mode] = _Rules(contract, mode)
    return rules


def _enabled(rules: _Rules, state: StateName, sigma: Continuation, psi: PendingSet) -> list | tuple:
    """The enabled rule instances from (state, sigma, psi), unbuilt, in a
    fixed order: a non-empty sigma alone; else the firable events by
    line-code, which preempt the rest; else the functions leaving `state` in
    declaration order, then `TICK` if the mode allows a tick."""
    if sigma is not None:
        return (sigma,)
    if psi:
        events = _firable(psi, state)
        if events is not None:
            return events
    options = rules.idle.get(state)
    if options is None:
        options = rules.idle_options(state)
    return options


def _take(rules: _Rules, state: StateName, psi: PendingSet, option) -> Move:
    """The move of one option of `_enabled`."""
    if option is TICK:
        return (TICK, state, None, decrement(psi, rules.lowered), 1)
    if isinstance(option, FunctionDecl):
        label, body = option.call
        return (label, state, body, psi, 0)
    if isinstance(option, PendingEvent):
        label, body = rules.fires.get(option) or rules.fire(option)
        return (label, state, body, psi.remove_one(option), 0)
    body_events, target = option
    return (STATECHANGE, target, None, psi.union(body_events), 0)


def successors(cfg: Configuration, mode: Mode = Mode.TICK) -> list[tuple[Label, Configuration]]:
    """All enabled one-step transitions from `cfg`, in the order of
    `_enabled`: firable events by line-code, then functions in declaration
    order, then the tick.  A non-empty sigma yields exactly one
    state-change."""
    contract, clock = cfg.contract, cfg.clock
    rules = _rules(contract, mode)
    out = []
    for option in _enabled(rules, cfg.state, cfg.sigma, cfg.psi):
        label, state, sigma, psi, ticks = _take(rules, cfg.state, cfg.psi, option)
        out.append((label, Configuration(contract, state, sigma, psi, clock + ticks)))
    return out


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


@dataclass(frozen=True, slots=True, init=False)
class Trace:
    """A finite run: the labelled steps taken from some start configuration.
    Each step records the configuration reached."""

    steps: tuple[TraceStep, ...]

    def __init__(self, steps):
        _set_steps(self, steps)

    def labels(self) -> list[str]:
        return [step.label.text() for step in self.steps]

    def __len__(self) -> int:
        return len(self.steps)


_set_steps = Trace.__dict__["steps"].__set__


def random_steps(
    contract: Contract, steps: int, seed: int, mode: Mode = Mode.TICK
) -> Iterator[TraceStep]:
    """Take at most `steps` transitions, picking uniformly among the enabled
    successors with the given seed, and yield each step as it is taken.
    Deterministic in (contract, steps, seed, mode); stops early when no
    successor exists."""
    choice = random.Random(seed).choice
    new = tuple.__new__  # skips the NamedTuple constructor
    rules = _rules(contract, mode)
    state, sigma, psi, clock = contract.init, None, EMPTY_PSI, 0
    for _ in range(steps):
        options = _enabled(rules, state, sigma, psi)
        if not options:
            return
        label, state, sigma, psi, ticks = _take(rules, state, psi, choice(options))
        # Steps without a tick keep the clock's int object: a walk keeps
        # every step, and `clock + 0` is a new object above 256.
        if ticks:
            clock += ticks
        yield new(TraceStep, (label, Configuration(contract, state, sigma, psi, clock)))


def run_random(
    contract: Contract, steps: int, seed: int, mode: Mode = Mode.TICK
) -> Trace:
    """The steps of `random_steps` as a trace."""
    return Trace(tuple(random_steps(contract, steps, seed, mode)))


# ---------------------------------------------------------------------------
# Trace serialization
# ---------------------------------------------------------------------------


# What `json.dumps` calls with its default arguments, without the cost of
# its keyword handling, which is more than the encoding of a short name.
_encode = json.JSONEncoder().encode


class Quoted(dict):
    """The JSON text of each value looked up, as `json.dumps` writes it,
    encoded on its first lookup.  The text writers keep one per output, so
    each distinct name is encoded once and nothing outlives the output."""

    def __missing__(self, value) -> str:
        text = self[value] = _encode(value)
        return text


def _psi_text(psi: PendingSet, quoted: Quoted) -> str:
    if not psi:
        return "[]"
    return "[" + ",".join([f"[{d},{n},{quoted[s]},{quoted[t]}]" for d, n, s, t in psi]) + "]"


def step_texts(steps: Iterable[TraceStep], quoted: Quoted) -> Iterator[str]:
    """The JSON text of each step, an object of its label, the reached state,
    sigma, psi and the clock, compact as `json.dumps` writes it."""
    for label, cfg in steps:
        sigma = cfg.sigma
        sigma_text = (
            "null"
            if sigma is None
            else f'{{"events":{_psi_text(sigma.events, quoted)},"target":{quoted[sigma.target]}}}'
        )
        yield (
            f'{{"label":{quoted[label.text()]},"state":{quoted[cfg.state]},'
            f'"sigma":{sigma_text},"psi":{_psi_text(cfg.psi, quoted)},"clock":{cfg.clock}}}'
        )


def trace_json(trace: Trace) -> str:
    """Canonical JSON text for a trace (stable key order, compact): the
    list of its `step_texts`."""
    return "[" + ",".join(step_texts(trace.steps, Quoted())) + "]"
