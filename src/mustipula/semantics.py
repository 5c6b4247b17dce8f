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
hash none, so interning the parts cannot pay there.  `StepTable` compiles
the same rules on interned ids for each forward search, which hashes every
configuration it meets and builds configurations only for its output.
"""

from __future__ import annotations

import enum
import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
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


class StepTable:
    """The rules for one forward search, over interned ids, compiled from
    the contract, the search's start configuration and its mode.  Build it
    with `for_search`, which picks the encoding of psi.

    A state is its name.  A continuation is an int interned on its value
    `(body, target)`, so equal continuations share one id however they
    arise; `sigmas[id]` is the `Body` it stands for, and the empty
    continuation is None.  Shapes number the distinct (line, source,
    target) triples of the contract's and the start's events in sorted
    order.  Here psi is a sorted tuple of the ints `delay * K + shape`, so
    packed order is `PendingSet` order.  A tick subtracts K from every entry
    and drops those below K; the firable events are the entries below K
    whose source is the current state.  `PackedStepTable` keeps psi as one
    int instead.  `start` is the start configuration's packed key, and
    `size(psi)` is the number of pending events in a packed psi.

    Shapes are numbered in one pass, so K is fixed when the table is built.
    Continuations are interned as they are met; a shape's label and fire
    continuation, and a state's calls and tick permission, on first use;
    the rank of the shapes, on the first node where two of them fire.  The
    table lists an idle node's firings (`fired`) and decodes nothing for
    the search: `reachability.explore` commits, calls and ticks in its own
    loop, and `reachability.Exploration` builds each node from its tree
    parent by the rule on its tree edge.  `decode` reads a key afresh."""

    # Packed psi has at most this many one-byte count fields; the largest
    # `forward_reach` table, TA `inc_chain(12)`, has 144.
    PACKED_FIELDS = 256

    @staticmethod
    def for_search(contract: Contract, start: Configuration, mode: Mode, max_psi: int) -> "StepTable":
        """The table of a search from `start` whose psi cap is `max_psi`.
        Psi is one int of one-byte count fields (`PackedStepTable`) when
        every delay of the contract's and the start's events is 0 (I) or
        every one is positive (TA), no count can reach 255, and the fields
        number at most `PACKED_FIELDS`; a sorted tuple otherwise.  Mixed
        delays (D) need a field per shape and delay but hold few pending
        events: packed, the D encodings of inc_chain(3..10) searched
        1.2-1.6x slower."""
        own = start.psi if start.sigma is None else start.psi + start.sigma.events
        pairs = [((ev.line, ev.source, ev.target), ev.time.offset) for fn in contract.functions for ev in fn.body]
        pairs += [(ev[1:], ev.delay) for ev in own]
        # One sort by delay gives the lowest and the highest delay, and each
        # shape's largest delay: the last pair of a shape wins.
        pairs.sort(key=itemgetter(1))
        depth = dict(pairs)
        if not pairs or pairs[0][1] or not pairs[-1][1]:
            # Only a state change adds to psi, at most the longest body, and
            # the search admits no psi over the cap but its start's.
            longest = max([len(fn.body) for fn in contract.functions], default=0)
            if start.sigma is not None:
                longest = max(longest, len(start.sigma.events))
            fits = max(max_psi, len(start.psi)) + longest < PackedStepTable.FULL
            if fits and len(depth) + sum(depth.values()) <= StepTable.PACKED_FIELDS:
                return PackedStepTable(contract, start, mode, depth)
        return StepTable(contract, start, mode, depth)

    def __init__(self, contract: Contract, start: Configuration, mode: Mode, depth: dict[tuple, int]):
        self.contract = contract
        self.mode = mode
        self.sigma_ids: dict[tuple, int] = {}
        self.sigmas: list[Body] = []  # id -> the continuation it stands for
        self.sigma_parts: list[tuple] = []  # id -> (target, body)
        self.calls: dict = {}  # state -> (its calls, whether it ticks)
        self.shapes = sorted(depth)
        self.shape_ids = dict(zip(self.shapes, range(len(self.shapes))))
        self.shape_source = [source for _, source, _ in self.shapes]
        self.K = max(1, len(self.shapes))
        self._fires: list = [None] * len(self.shapes)  # shape -> (label, continuation)
        self.shape_rank: list[int] | None = None  # shape -> `_rank_shapes()`
        self._lay_out(depth)
        sigma = None if start.sigma is None else self.sigma(start.sigma)
        self.start = (start.state, sigma, self.pack(start.psi))

    def _lay_out(self, depth: dict[tuple, int]):
        """The encoding's own fields, from each shape's largest delay; the
        tuple needs none."""

    def _rank_shapes(self) -> list[int]:
        """Each shape's rank among firable events, which sort as their label
        texts do (`ev:10` before `ev:9`), ties in shape order: an int per
        shape, so that `fired` sorts by a C-level key."""
        order = sorted(range(len(self.shapes)), key=lambda i: str(self.shapes[i][0]))
        rank = self.shape_rank = [0] * len(order)
        for r, i in enumerate(order):
            rank[i] = r
        return rank

    def pack(self, psi: Iterable[PendingEvent]) -> tuple[int, ...]:
        K, ids = self.K, self.shape_ids
        return tuple(sorted(ev.delay * K + ids[ev[1:]] for ev in psi))

    size = len  # of a packed psi
    NOTHING = ()  # the empty psi, packed

    def sigma(self, body: Body) -> int:
        parts = (body.target, self.pack(body.events) if body.events else self.NOTHING)
        sid = self.sigma_ids.get(parts)
        if sid is None:
            sid = self.sigma_ids[parts] = len(self.sigmas)
            self.sigmas.append(body)
            self.sigma_parts.append(parts)
        return sid

    def _codes(self, psi: tuple[int, ...]) -> tuple[int, ...]:
        """Packed psi as the sorted ints `delay * K + shape`."""
        return psi

    def decode(self, key: tuple) -> tuple[StateName, Continuation, PendingSet]:
        """A packed key as (state, sigma, psi), read afresh on every call."""
        state, sigma, psi = key
        K, shapes = self.K, self.shapes
        events = [PendingEvent(code // K, *shapes[code % K]) for code in self._codes(psi)]
        return state, None if sigma is None else self.sigmas[sigma], _sorted(events)

    def compile_calls(self, state: StateName) -> tuple:
        # Call labels sort as their texts do: by name, ties in declaration order.
        fns = sorted(self.contract.by_source.get(state, ()), key=lambda fn: fn.name)
        calls = tuple((fn.call[0], self.sigma(fn.call[1])) for fn in fns)
        ticks = self.mode is Mode.TICK or state not in self.contract.init_ev
        compiled = self.calls[state] = (calls, ticks)
        return compiled

    def _fire(self, shape: int) -> tuple[Label, int]:
        line, _, target = self.shapes[shape]
        fire = self._fires[shape] = (Label("event", None, line), self.sigma(Body(EMPTY_PSI, target)))
        return fire

    def fired(self, state: StateName, psi: tuple) -> list:
        """The firings from an idle node, as (label, (state, sigma', psi'))
        in label-text order, one per distinct firable event: an empty list
        when none of psi's delay-0 events has its source at `state`."""
        K, source = self.K, self.shape_source
        firing = []
        for e in psi:
            if e >= K:
                break
            if source[e] == state and (not firing or firing[-1] != e):
                firing.append(e)
        if len(firing) > 1:
            firing.sort(key=(self.shape_rank or self._rank_shapes()).__getitem__)
        out = []
        for e in firing:
            label, fire = self._fires[e] or self._fire(e)
            i = psi.index(e)
            out.append((label, (state, fire, psi[:i] + psi[i + 1 :])))
        return out


class PackedStepTable(StepTable):
    """A `StepTable` whose psi is one int of one-byte count fields.  Each
    shape owns one field per delay from 0 up to its largest delay in the
    contract or the start, the delays of one shape side by side, so a
    firing subtracts a unit, a state change adds the packed body, and a tick
    is `(psi >> 8) & keep`, where `keep` clears each shape's top field,
    which receives the next shape's delay-0 count.  `for_search` admits a
    table only if no count can reach 255, so `psi % 255` is |psi|.  Each
    state's firable test is one mask in `masks`, which `explore` runs
    before it asks `fired`, and the shapes that fire there are ranked when
    it first fires.  Nothing here decodes a search's psi: its nodes are
    built from their tree parents, as for the tuple encoding."""

    FULL = 255
    NOTHING = 0

    def _lay_out(self, depth: dict[tuple, int]):
        depths = list(map(depth.__getitem__, self.shapes))
        self.bases = list(accumulate([8 * d + 8 for d in depths], initial=0))  # shape -> its delay-0 bit
        self.fields = self.bases.pop() // 8
        self.keep = int.from_bytes(b"".join([b"\xff" * d + b"\0" for d in depths]), "little") if any(depths) else 0
        # State -> the mask of the delay-0 fields of the shapes with that
        # source: its firable test.
        self.masks: dict[StateName, int] = {}
        masks = self.masks
        for source, base in zip(self.shape_source, self.bases):
            masks[source] = masks.get(source, 0) | self.FULL << base
        self._ranked: dict[StateName, tuple] = {}  # state -> `_rank(state)`

    def pack(self, psi: Iterable[PendingEvent]) -> int:
        bases, ids = self.bases, self.shape_ids
        return sum([1 << (bases[ids[ev[1:]]] + 8 * ev.delay) for ev in psi])

    def size(self, psi: int) -> int:
        return psi % self.FULL

    def _codes(self, psi: int) -> tuple[int, ...]:
        """Psi's codes in the tuple encoding, read off its nonzero fields."""
        bases, codes, rest = self.bases, [], psi
        while rest:
            bit = (rest & -rest).bit_length() - 1 & ~7  # the field's lowest bit
            count = rest >> bit & self.FULL
            shape = bisect_right(bases, bit) - 1
            codes += [(bit - bases[shape] >> 3) * self.K + shape] * count
            rest -= count << bit
        return tuple(sorted(codes))

    def _rank(self, state: StateName) -> tuple:
        """Per shape that may fire at a state, (field, unit, shape), ranked
        as the label texts sort (`ev:10` before `ev:9`), ties in shape
        order.  Shapes are in line order, which is that order unless the
        lines' lengths differ."""
        bases = self.bases
        shapes = [i for i, source in enumerate(self.shape_source) if source == state]
        if len(shapes) > 1 and len(str(self.shapes[shapes[0]][0])) != len(str(self.shapes[shapes[-1]][0])):
            shapes.sort(key=lambda i: str(self.shapes[i][0]))
        ranked = self._ranked[state] = tuple([(self.FULL << bases[i], 1 << bases[i], i) for i in shapes])
        return ranked

    def fired(self, state: StateName, psi: int) -> list:
        out = []
        for field, unit, shape in self._ranked.get(state) or self._rank(state):
            if psi & field:
                label, fire = self._fires[shape] or self._fire(shape)
                out.append((label, (state, fire, psi - unit)))
        return out


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


def _psi_json(psi: PendingSet) -> list:
    return [[ev.delay, ev.line, ev.source, ev.target] for ev in psi]


def _sigma_json(sigma: Continuation):
    if sigma is None:
        return None
    return {"events": _psi_json(sigma.events), "target": sigma.target}


def step_payload(step: TraceStep) -> dict:
    """The JSON-ready form of one step: the label, the reached state, sigma,
    psi, and the clock."""
    cfg = step.config
    return {
        "label": step.label.text(),
        "state": cfg.state,
        "sigma": _sigma_json(cfg.sigma),
        "psi": _psi_json(cfg.psi),
        "clock": cfg.clock,
    }


def trace_payload(trace: Trace) -> list:
    """The JSON-ready form of a trace: one object per step."""
    return [step_payload(step) for step in trace.steps]


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
    """The JSON text of each step, as `json.dumps(step_payload(step),
    separators=(",", ":"))` writes it, built without the payload."""
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
    """Canonical JSON text for a trace (stable key order, compact): the text
    of `trace_payload`, written in one pass."""
    return "[" + ",".join(step_texts(trace.steps, Quoted())) + "]"
