"""The bounded forward search: breadth-first, any contract, any mode.

No rule reads the clock, so `explore` deduplicates over the quotient
(state, sigma, psi), and a witness is a BFS-tree path.  The search steps
on a table compiled for that one search, whose psi is a sorted tuple of
ints (`StepTable`) or one int of count fields (`PackedStepTable`), and
`Exploration` builds configurations from its packed nodes only for output.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from itertools import accumulate
from operator import itemgetter
from typing import Iterable

from .semantics import (
    EMPTY_PSI,
    STATECHANGE,
    TICK,
    Body,
    Configuration,
    Label,
    Mode,
    PendingEvent,
    TraceStep,
    decrement,
    initial_config,
)
from .syntax import Contract, StateName


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
    table steps and decodes nothing for the search: `explore` commits,
    fires, calls and ticks in its own loop, and `Exploration` builds each
    node from its tree parent by the rule on its tree edge."""

    # Packed psi has at most this many one-byte count fields.
    PACKED_FIELDS = 256

    @staticmethod
    def for_search(contract: Contract, start: Configuration, mode: Mode, max_psi: int) -> "StepTable":
        """The table of a search from `start` whose psi cap is `max_psi`.
        Psi is one int of one-byte count fields (`PackedStepTable`) when
        every delay of the contract's and the start's events is 0 (I) or
        every one is positive (TA), no count can reach 255, and the fields
        number at most `PACKED_FIELDS`; a sorted tuple otherwise.  Mixed
        delays (D) need a field per shape and delay but hold few pending
        events, so packing them made their searches slower."""
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
        shape, so that `explore` sorts by a C-level key."""
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


class PackedStepTable(StepTable):
    """A `StepTable` whose psi is one int of one-byte count fields.  Each
    shape owns one field per delay from 0 up to its largest delay in the
    contract or the start, the delays of one shape side by side, so a
    firing subtracts a unit, a state change adds the packed body, and a tick
    is `(psi >> 8) & keep`, where `keep` clears each shape's top field,
    which receives the next shape's delay-0 count.  `for_search` admits a
    table only if no count can reach 255, so `psi % 255` is |psi|.  Each
    state's firable test is one mask in `masks`, and the shapes that may
    fire there are ranked (`_rank`) when `explore` first finds the mask
    hit."""

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


@dataclass(frozen=True)
class ExplorationLimits:
    """Caps for the forward search: visited configurations, ticks along the
    first BFS path to a configuration, and pending-multiset size.  All
    strictly positive.  `explore` never revisits a configuration by a later
    path with fewer ticks; that is sound, as it can only add UNKNOWNs."""

    max_configs: int = 1_000_000
    max_clock: int = 1_000
    max_psi: int = 64

    def __post_init__(self):
        if min(self.max_configs, self.max_clock, self.max_psi) <= 0:
            raise ValueError("exploration limits must be strictly positive")


@dataclass
class Exploration:
    """Result of `explore`, a breadth-first forward search over the
    configuration graph up to clocks, from which `reachability` builds its
    verdicts.  Node i is the configuration (state, sigma, psi) kept as
    `packed[i]` in the ids of `table`, psi a tuple or an int as the table
    encodes it (`table.size` counts it), with clock `clocks[i]`, the ticks
    along its path in the BFS tree, kept as two flat lists: `parents[i]`
    and `labels[i]` are its tree parent and the rule on its tree edge, None
    at the root.  A (parent, label) pair per node would stay tracked by the
    cyclic collector all search long.  `complete` means no cap pruned
    anything, so the nodes are the entire reachable quotient space.

    `config` alone builds configurations, on demand, each node at most once
    and by one rule for both encodings: node 0 is `root`, the start
    configuration at clock 0, and every other node is its tree parent's
    configuration stepped by the rule on its tree edge (`step`), replayed
    down from the nearest built ancestor, so no result depends on the order
    of the calls.  `configs` and `path` take their nodes from `config`, and
    `path` keeps each node's `TraceStep`, so paths through a node share it.
    `edges`, when `explore` records them, holds every step of each expanded
    node in label-text order, to a new node or a visited one.  `pruned`
    counts, per limit, the steps to unvisited configurations that the limit
    turned away."""

    table: StepTable
    root: Configuration
    packed: list[tuple]
    clocks: list[int]
    parents: list[int | None]
    labels: list[Label | None]
    edges: list[tuple[int, Label, int]]
    complete: bool = False
    limit_hit: str | None = None
    pruned: dict[str, int] = field(default_factory=lambda: {"psi": 0, "clock": 0, "configs": 0})
    # Node -> its configuration and node -> its TraceStep, as built; and
    # each event a tick lowered -> its lowered copy.
    _nodes: dict[int, Configuration] = field(init=False, repr=False, compare=False)
    _steps: dict[int, TraceStep] = field(default_factory=dict, init=False, repr=False, compare=False)
    _lowered: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        self._nodes = {0: self.root}

    def step(self, cfg: Configuration, label: Label, key: tuple, clock: int) -> Configuration:
        """The configuration that the move `label` from `cfg` reaches, whose
        packed key is `key`, with clock `clock`.  A call keeps psi and takes
        the key's continuation; a firing takes it too and removes one copy of
        the event; a state change commits sigma; a tick lowers psi."""
        contract, psi = cfg.contract, cfg.psi
        if label is TICK:
            return Configuration(contract, cfg.state, None, decrement(psi, self._lowered), clock)
        if label is STATECHANGE:
            body = cfg.sigma
            return Configuration(contract, body.target, None, psi.union(body.events), clock)
        sigma = self.table.sigmas[key[1]]
        if label.kind == "event":
            psi = psi.remove_one(tuple.__new__(PendingEvent, (0, label.line, cfg.state, sigma.target)))
        return Configuration(contract, cfg.state, sigma, psi, clock)

    @functools.cached_property
    def configs(self) -> list[Configuration]:
        """Every node as a configuration, built on first access."""
        return list(map(self.config, range(len(self.packed))))

    def config(self, node: int) -> Configuration:
        """Node `node` as a configuration, built on first use from its
        nearest built ancestor."""
        nodes = self._nodes
        cfg = nodes.get(node)
        if cfg is None:
            parents, below = self.parents, []
            while cfg is None:
                below.append(node)
                node = parents[node]
                cfg = nodes.get(node)
            packed, clocks, labels, step = self.packed, self.clocks, self.labels, self.step
            for node in reversed(below):
                cfg = nodes[node] = step(cfg, labels[node], packed[node], clocks[node])
        return cfg

    def visited_states(self) -> frozenset[StateName]:
        """States reachable per the reachability definition: some visited
        configuration has that state and an empty continuation."""
        return frozenset(state for state, sigma, _ in self.packed if sigma is None)

    def path(self, node: int) -> tuple[TraceStep, ...]:
        """The steps of the tree path from the start configuration, node
        0, to `node`: a run of the rules, with true clocks."""
        steps, parents, labels, out = self._steps, self.parents, self.labels, []
        while node:
            step = steps.get(node)
            if step is None:
                step = steps[node] = tuple.__new__(TraceStep, (labels[node], self.config(node)))
            out.append(step)
            node = parents[node]
        out.reverse()
        return tuple(out)


def explore(
    contract: Contract,
    mode: Mode = Mode.TICK,
    limits: ExplorationLimits = ExplorationLimits(),
    record_edges: bool = False,
    target_state: StateName | None = None,
    start: Configuration | None = None,
) -> tuple[Exploration, int | None]:
    """BFS from the initial configuration (or `start`, with its clock reset
    to 0) with a visited set over (state, sigma, psi); a configuration keeps
    the clock of the first path that reaches it.  Successors expand in
    lexicographic label order, so witnesses are deterministic.  A step to
    an already visited configuration is an edge, never a pruning: the caps
    apply to new configurations only.  Returns the exploration and, when
    `target_state` is given and some visited configuration has that state
    with an empty continuation, its node.

    The search steps on `StepTable.for_search` of this contract, start,
    mode and psi cap, and expands each node by its kind in one loop that
    reads the table's fields directly, so both psi encodings are known to
    this module alone.  A
    continuation's commit alone adds to psi or empties sigma, so only it
    meets the target test, and the psi cap when its body is not empty.  An
    idle node's firings preempt its calls and its tick, the one step that
    meets the clock cap.  Every step from a start over the psi cap meets
    that cap too.  An admitted node adds its tree parent and rule to
    `parents` and `labels`, and no object the collector keeps tracking."""
    start = start if start is not None else initial_config(contract)
    max_configs, max_clock, max_psi = limits.max_configs, limits.max_clock, limits.max_psi
    table = StepTable.for_search(contract, start, mode, max_psi)
    root = Configuration(contract, start.state, start.sigma, start.psi, 0)
    exploration = Exploration(table, root, [table.start], [0], [None], [None], [])
    if target_state == start.state and start.sigma is None:
        return exploration, 0
    packed, clocks = exploration.packed, exploration.clocks
    parents, labels = exploration.parents, exploration.labels
    edges, pruned = exploration.edges, exploration.pruned
    # The loop commits, sizes, fires and ticks psi inline, an int or a sorted
    # tuple as the table encodes it: as table methods, the same steps made
    # the `forward_reach` benchmark slower.
    ints = isinstance(table, PackedStepTable)
    K, FULL, sigma_parts = table.K, PackedStepTable.FULL, table.sigma_parts
    fires, fire_of, source = table._fires, table._fire, table.shape_source
    masks, keep, ranked, rank = (table.masks, table.keep, table._ranked, table._rank) if ints else (None,) * 4
    compiled, compile_calls = table.calls, table.compile_calls
    # Cleared after the start; a continuation start over the cap ends the search.
    check_all = table.size(table.start[2]) > max_psi
    index = {table.start: 0}
    # One lookup either finds a key or enters it; a key turned away is
    # taken out again.
    lookup = index.setdefault

    def turn_away(key: tuple, limit: str) -> tuple[Exploration, None]:
        del index[key]
        exploration.limit_hit = limit
        pruned[limit] += 1
        return exploration, None

    queue = deque([0])
    while queue:
        node = queue.popleft()
        state, sigma, psi = packed[node]
        if sigma is not None:
            # Every admitted psi but the start's is within the cap, so an
            # empty body, as a firing's, needs no test.
            target, body = sigma_parts[sigma]
            if body:
                psi = psi + body if ints else tuple(sorted(psi + body))
            key = (target, None, psi)
            child = len(packed)
            known = lookup(key, child)
            if known != child:
                if record_edges:
                    edges.append((node, STATECHANGE, known))
            elif (body or check_all) and (psi % FULL if ints else len(psi)) > max_psi:
                turn_away(key, "psi")
            elif child >= max_configs:
                return turn_away(key, "configs")
            else:
                packed.append(key)
                clocks.append(clocks[node])
                parents.append(node)
                labels.append(STATECHANGE)
                if record_edges:
                    edges.append((node, STATECHANGE, child))
                if target == target_state:
                    return exploration, child
                queue.append(child)
            continue
        clock = clocks[node]
        # Firings, one per distinct firable event in label-text order,
        # preempt the calls and the tick.  In an int, the state's mask finds
        # them; in a tuple, they are the delay-0 entries with that source.
        if ints:
            firing = psi & masks.get(state, 0) and (ranked.get(state) or rank(state))
        else:
            firing = None
            for e in psi:
                if e >= K:
                    break
                if source[e] == state:
                    if firing is None:
                        firing = [e]
                    elif firing[-1] != e:
                        firing.append(e)
            if firing and len(firing) > 1:
                firing.sort(key=(table.shape_rank or table._rank_shapes()).__getitem__)
        if firing:
            for item in firing:
                if ints:
                    field, unit, shape = item
                    if not psi & field:
                        continue
                    rest = psi - unit
                else:
                    shape, i = item, psi.index(item)
                    rest = psi[:i] + psi[i + 1 :]
                label, fire = fires[shape] or fire_of(shape)
                key = (state, fire, rest)
                child = len(packed)
                known = lookup(key, child)
                if known != child:
                    if record_edges:
                        edges.append((node, label, known))
                elif check_all and (rest % FULL if ints else len(rest)) > max_psi:
                    turn_away(key, "psi")
                elif child >= max_configs:
                    return turn_away(key, "configs")
                else:
                    packed.append(key)
                    clocks.append(clock)
                    parents.append(node)
                    labels.append(label)
                    if record_edges:
                        edges.append((node, label, child))
                    queue.append(child)
            check_all = False
            continue
        calls, ticks = compiled.get(state) or compile_calls(state)
        for label, step in calls:
            key = (state, step, psi)
            child = len(packed)
            known = lookup(key, child)
            if known != child:
                if record_edges:
                    edges.append((node, label, known))
            elif check_all:  # a call keeps the start's psi, over the cap
                turn_away(key, "psi")
            elif child >= max_configs:
                return turn_away(key, "configs")
            else:
                packed.append(key)
                clocks.append(clock)
                parents.append(node)
                labels.append(label)
                if record_edges:
                    edges.append((node, label, child))
                queue.append(child)
        if ticks:
            key = (state, None, (psi >> 8) & keep if ints else tuple([e - K for e in psi if e >= K]))
            child = len(packed)
            known = lookup(key, child)
            if known != child:
                if record_edges:
                    edges.append((node, TICK, known))
            elif check_all and (key[2] % FULL if ints else len(key[2])) > max_psi:
                turn_away(key, "psi")
            elif clock >= max_clock:
                turn_away(key, "clock")
            elif child >= max_configs:
                return turn_away(key, "configs")
            else:
                packed.append(key)
                clocks.append(clock + 1)
                parents.append(node)
                labels.append(TICK)
                if record_edges:
                    edges.append((node, TICK, child))
                queue.append(child)
        check_all = False
    exploration.complete = exploration.limit_hit is None
    return exploration, None
