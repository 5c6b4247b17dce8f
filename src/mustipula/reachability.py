"""State and clause reachability.

Two routes:

* `bounded_reach` - breadth-first forward search, any contract, any mode.
  A semi-decision: it answers Reachable with a witness or Unknown, never
  Unreachable.  No rule reads the clock, so the search deduplicates over
  the quotient (state, sigma, psi); each configuration keeps the clock of
  the first path that reaches it, and a witness is its BFS-tree path.

* `decide_coverable` - the complete backward procedure for
  determinate-instantaneous (DI) contracts.  Configurations of a DI
  contract under the tick-plus rule form a well-structured transition
  system for the ordering `config_leq` (same state, same sigma, pending
  multiset inclusion), so the classic backward coverability fixpoint over
  finite bases of upward-closed sets terminates and is exact.  It runs on
  packed elements, psi a count vector in one int; only `pred_basis` builds
  configurations.  State reachability under the plain tick rule coincides
  with tick-plus reachability on DI contracts, so verdicts transfer.

`unreachable_clauses` analyzes every clause: complete verdicts on DI
contracts, forward-search verdicts (Reachable/Unknown) elsewhere.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from . import fragments
from .errors import DifferentContractsError, NotDIError
from .semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    Mode,
    PackedStepTable,
    PendingEvent,
    PendingSet,
    Quoted,
    STATECHANGE,
    TICK,
    StepTable,
    Trace,
    TraceStep,
    decrement,
    initial_config,
    step_texts,
    trace_payload,
)
# Kept importable: perfbench/tracer.py wraps `reachability.successors`.
from .semantics import successors  # noqa: F401
from .syntax import ClauseId, Contract, EventDecl, StateName, validate


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


@dataclass(frozen=True, slots=True, init=False)
class Verdict:
    """Outcome of a reachability question.  Unreachable is only ever
    produced by the complete DI procedure; bounded search degrades to
    Unknown (with the limit that stopped it, if any)."""

    status: str  # "reachable" | "unreachable" | "unknown"
    witness: Trace | None = None
    detail: str | None = None

    # Filled through the slots' descriptors, as semantics.Configuration is:
    # the forward fallback builds one per clause.
    def __init__(self, status, witness=None, detail=None):
        _set_status(self, status)
        _set_witness(self, witness)
        _set_detail(self, detail)

    @classmethod
    def reachable(cls, witness: Trace | None = None) -> "Verdict":
        if witness is None:
            return _REACHABLE
        return cls("reachable", witness=witness)

    @classmethod
    def unreachable(cls) -> "Verdict":
        return _UNREACHABLE

    @classmethod
    def unknown(cls, detail: str | None = None) -> "Verdict":
        return cls("unknown", detail=detail)


_set_status, _set_witness, _set_detail = (
    Verdict.__dict__[name].__set__ for name in ("status", "witness", "detail")
)

# Verdicts are immutable, so every witness-less one can be shared.
_REACHABLE = Verdict("reachable")
_UNREACHABLE = Verdict("unreachable")


# ---------------------------------------------------------------------------
# The ordering and bases
# ---------------------------------------------------------------------------


def _same_contract(a: Contract, b: Contract, message="configurations belong to different contracts"):
    """Raise DifferentContractsError(message) unless a and b are equal."""
    if a is not b and a != b:
        raise DifferentContractsError(message)


def config_leq(a: Configuration, b: Configuration) -> bool:
    """The well-quasi-ordering on configurations: equal state, equal sigma,
    and a's pending multiset included in b's.  Clocks are ignored."""
    _same_contract(a.contract, b.contract)
    return a.state == b.state and a.sigma == b.sigma and a.psi.issubmultiset(b.psi)


class CoverBasis:
    """A finite antichain of minimal configurations of one contract,
    denoting the upward-closed set that is the union of their upward cones.

    Elements are bucketed by (state, sigma), since `config_leq` is false
    across buckets; within a bucket, pending multisets are compared by
    inclusion.  Clocks are ignored, as in `config_leq`."""

    def __init__(self, elements: Iterable[Configuration] = ()):
        self._contract: Contract | None = None
        self._buckets: dict[tuple, list[Configuration]] = {}
        for cfg in elements:
            self.add(cfg)

    @property
    def elements(self) -> frozenset[Configuration]:
        return frozenset(cfg for bucket in self._buckets.values() for cfg in bucket)

    def _bucket(self, cfg: Configuration) -> list[Configuration]:
        if self._contract is None:
            self._contract = cfg.contract
        else:
            _same_contract(cfg.contract, self._contract)
        return self._buckets.get((cfg.state, cfg.sigma), [])

    def covers(self, cfg: Configuration) -> bool:
        return any(b.psi.issubmultiset(cfg.psi) for b in self._bucket(cfg))

    def keeps(self, cfg: Configuration) -> bool:
        """Whether `cfg` itself is still one of the minimal elements."""
        for b in self._buckets.get((cfg.state, cfg.sigma), ()):
            if b is cfg:
                return True
        return False

    def add(self, cfg: Configuration) -> bool:
        """Add `cfg` unless the set already covers it, dropping the elements
        it covers.  Returns whether `cfg` was added."""
        bucket, psi = self._bucket(cfg), cfg.psi
        for b in bucket:
            if b.psi.issubmultiset(psi):
                return False
        kept = [b for b in bucket if not psi.issubmultiset(b.psi)]
        kept.append(cfg)
        self._buckets[cfg.state, cfg.sigma] = kept
        return True


def minimize_basis(configs: Iterable[Configuration]) -> CoverBasis:
    """Keep only the minimal elements; the denoted upward-closed set is
    unchanged."""
    return CoverBasis(configs)


# ---------------------------------------------------------------------------
# Backward coverability (DI only)
# ---------------------------------------------------------------------------


def _require_di(contract: Contract):
    if not fragments.classify(contract).det_instantaneous:
        raise NotDIError(
            "the complete procedure requires a determinate-instantaneous contract"
        )


def pred_basis(contract: Contract, target: Configuration) -> frozenset[Configuration]:
    """A finite basis of the one-step predecessors of the upward cone of
    `target` under the tick-plus relation, by the engine's rule `_preds`:
    Function and Event-Match predecessors of a continuation target;
    State-Change ones of an empty-continuation target, the committed body
    subtracted saturating, plus the target itself when its psi is empty and
    its state admits tick-plus, since a tick empties any DI multiset.
    Raises `ValueError` on a pending event not declared at delay 0, and
    DifferentContractsError on a target of another contract."""
    _require_di(contract)
    _same_contract(target.contract, contract, "target belongs to a different contract")
    backward = _Backward(contract)
    return frozenset(map(backward.config, backward.packed(backward._preds, target)))


class _Backward:
    """The backward coverability fixpoint for one DI contract on elements
    (state, sigma id, vec).  In DI every pending event has delay 0, so psi is
    a count vector over the sorted event shapes, packed into the int `vec` of
    `width`-bit fields.  No count reaches the fields' top bits `guard`, so `a
    <= b` is `((b | guard) - a) & guard == guard`; reaching them raises
    `OverflowError`, and `packed` redoes the work at double width.  A sigma
    id is interned on (target, packed body).  Predecessor bases and state
    verdicts are kept across targets.  `stats` counts the elements expanded,
    the largest basis, the basis elements each candidate met in its bucket,
    and the elements kept but not expanded since their state is known not
    coverable, over all decisions."""

    def __init__(self, contract: Contract):
        self.contract = contract
        self.shapes = sorted({(ev.line, ev.source, ev.target) for ev in contract.events()})
        # State q -> whether (q, --, --) is coverable.
        self.states: dict[StateName, bool] = {contract.init: True}
        self.stats = dict.fromkeys(("expansions", "peak_basis", "subsumption_checks", "skipped"), 0)
        self._compile(16)

    def _compile(self, width: int):
        self.width, self.memo, self.sigma_ids, self.sigmas = width, {}, {}, []
        units = self.units = {shape: 1 << i * width for i, shape in enumerate(self.shapes)}
        self.guard = sum(units.values()) << width - 1
        # Function: (source, sigma id); Event-Match: (state, body target) ->
        # units; State-Change: state -> (source, sigma id, (mask, unit)s).
        self.installs, self.fires, self.changes = set(), {}, {}
        for fn in self.contract.functions:
            lowered = [units[ev.line, ev.source, ev.target] for ev in fn.body]
            sid = self._sigma(fn.target, sum(lowered))
            self.installs.add((fn.source, sid))
            lowered = tuple((u * ((1 << width) - 1), u) for u in lowered)
            self.changes.setdefault(fn.target, []).append((fn.source, sid, lowered))
        for ev in self.contract.events():
            self.fires.setdefault((ev.source, ev.target), []).append(units[ev.line, ev.source, ev.target])
            self.changes.setdefault(ev.target, []).append((ev.source, self._sigma(ev.target, 0), ()))

    def _sigma(self, target: StateName, body: int) -> int:
        sid = self.sigma_ids.setdefault((target, body), len(self.sigmas))
        if sid == len(self.sigmas):
            self.sigmas.append((target, body))
        return sid

    def _vec(self, psi: Iterable[PendingEvent]) -> int:
        vec = 0
        for ev in psi:
            if ev.delay or ev[1:] not in self.units:
                raise ValueError(f"target pending event {ev} is not declared in the contract")
            if (vec := vec + self.units[ev[1:]]) & self.guard:
                raise OverflowError
        return vec

    def packed(self, run, target: Configuration):
        """`run` on the packed `target`, redone at double width on overflow."""
        while True:
            try:
                sigma = target.sigma and self._sigma(target.sigma.target, self._vec(target.sigma.events))
                return run((target.state, sigma, self._vec(target.psi)))
            except OverflowError:
                self._compile(2 * self.width)

    def config(self, key: tuple) -> Configuration:
        width, mask = self.width, (1 << self.width) - 1
        pending = lambda vec: PendingSet(
            PendingEvent(0, *shape) for i, shape in enumerate(self.shapes) for _ in range(vec >> i * width & mask)
        )
        state, sid, vec = key
        sigma = None if sid is None else Body(pending(self.sigmas[sid][1]), self.sigmas[sid][0])
        return Configuration(self.contract, state, sigma, pending(vec), 0)

    def decide(self, target: Configuration) -> bool:
        """Whether some reachable configuration dominates `target`."""
        return self.packed(self._fixpoint, target)

    def _preds(self, key: tuple) -> tuple:
        """`pred_basis` on a packed element: deduplicated, in contract order."""
        state, sid, vec = key
        if sid is not None:
            out = [(state, None, vec)] if (state, sid) in self.installs else []
            target, body = self.sigmas[sid]
            for unit in () if body else self.fires.get((state, target), ()):
                if (vec + unit) & self.guard:
                    raise OverflowError
                out.append((state, None, vec + unit))
            return tuple(out)
        out = []
        for source, sigma, lowered in self.changes.get(state, ()):
            pre = vec
            for mask, unit in lowered:
                pre -= min(pre & mask, unit)
            out.append((source, sigma, pre))
        if not vec and state not in self.contract.init_ev:
            out.append(key)
        return tuple(dict.fromkeys(out))

    def _fixpoint(self, target: tuple) -> bool:
        """Saturate a basis of the upward-closed set of elements covering the
        target with predecessor bases, breadth-first, until it covers (q, --,
        --) for a state q known coverable.  An element (q, --, vec) of a state
        known not coverable is kept but not expanded: its predecessor closure
        is unreachable too.  A bucket is an antichain of vectors."""
        states, memo, guard, stats = self.states, self.memo, self.guard, self.stats
        basis: dict[tuple, list[int]] = {}  # (state, sigma id) -> vectors
        frontier: deque[tuple] = deque()
        size, peak, checks, skipped, batch, covered = 0, stats["peak_basis"], 0, 0, (target,), False
        while not covered:
            for key in batch:
                state, sid, vec = key
                bucket = basis.get((state, sid))
                if bucket is None:
                    basis[state, sid] = [vec]
                    size += 1
                else:
                    checks += len(bucket)
                    if any(((vec | guard) - b) & guard == guard for b in bucket):
                        continue
                    kept = [b for b in bucket if ((b | guard) - vec) & guard != guard]
                    kept.append(vec)
                    basis[state, sid] = kept
                    size += len(kept) - len(bucket)
                if size > peak:
                    peak = size
                known = states.get(state) if sid is None else None
                if known and not vec:
                    covered = True
                    break
                if known is not False:
                    frontier.append(key)
                else:
                    skipped += 1
            else:
                while frontier:
                    key = frontier.popleft()
                    if key[2] in basis[key[0], key[1]]:
                        break
                else:
                    break
                if (batch := memo.get(key)) is None:
                    stats["expansions"] += 1
                    batch = memo[key] = self._preds(key)
        stats["peak_basis"], stats["subsumption_checks"] = peak, stats["subsumption_checks"] + checks
        stats["skipped"] += skipped
        if covered and not target[2]:
            states[target[0]] = True
        elif not covered:
            # The closure misses the initial configuration; an element
            # (q, --, --) covers its bucket, so it is alone there.
            for (state, sid), bucket in basis.items():
                if sid is None and not bucket[0]:
                    states[state] = False
        return covered


def decide_coverable(contract: Contract, target: Configuration) -> bool:
    """Decide, for a DI contract, whether some reachable configuration
    dominates `target` under `config_leq`, by the backward fixpoint, which
    terminates by the well-quasi-ordering.  The verdict holds for both the
    tick and tick-plus semantics.  A contract that `syntax.validate` rejects
    raises its error, as in `unreachable_clauses`."""
    validate(contract)
    _require_di(contract)
    _same_contract(target.contract, contract, "target belongs to a different contract")
    if target.sigma is not None:
        raise ValueError("coverability targets must have an empty continuation")
    return _Backward(contract).decide(target)


def state_target(contract: Contract, state: StateName) -> Configuration:
    """The coverability target for state reachability: (state, --, --)."""
    return Configuration(contract, state, None, EMPTY_PSI, 0)


def event_target(contract: Contract, line: int) -> Configuration:
    """The coverability target for firing the event declared at `line`: its
    source state with exactly that pending occurrence at delay 0.  Raises
    the `syntax.validate` error of a contract whose line-codes clash."""
    validate(contract)
    ev = contract.event_at_line(line)
    if ev is None:
        raise ValueError(f"no event declared at line {line}")
    return _fire_target(contract, ev)


def _fire_target(contract: Contract, ev: EventDecl) -> Configuration:
    """(ev's source, --, one pending occurrence of ev at delay 0)."""
    inst = PendingEvent(0, ev.line, ev.source, ev.target)
    return Configuration(contract, ev.source, None, PendingSet([inst]), 0)


# ---------------------------------------------------------------------------
# Forward exploration
# ---------------------------------------------------------------------------


@dataclass
class Exploration:
    """Result of a breadth-first forward search over the configuration graph
    up to clocks.  Node i is the configuration (state, sigma, psi) kept as
    `packed[i]` in the ids of `table`, psi a tuple or an int as the table
    encodes it (`table.size` counts it), with clock `clocks[i]`, the ticks
    along its path in the BFS tree `parents`.  `complete` means no cap
    pruned anything, so the nodes are the entire reachable quotient space.

    `configs`, `config` and `path` build configurations on demand, each
    node at most once and by one rule for both encodings: node 0 is `root`,
    the start configuration at clock 0, and every other node is its tree
    parent's configuration stepped by the rule on its tree edge (`step`).
    `config` replays down from the nearest built ancestor and `configs`
    builds in index order, where a parent precedes its children, so no
    result depends on the order of the calls.  `path` keeps each node's
    step, so paths share them, and the path of each node asked for or
    branched off from.
    `edges`, when `explore` records them, holds every step of each expanded
    node in label-text order, to a new node or a visited one.  `pruned`
    counts, per limit, the steps to unvisited configurations that the limit
    turned away."""

    table: StepTable
    root: Configuration
    packed: list[tuple]
    clocks: list[int]
    parents: list[tuple[int, Label] | None]
    edges: list[tuple[int, Label, int]]
    complete: bool = False
    limit_hit: str | None = None
    pruned: dict[str, int] = field(default_factory=lambda: {"psi": 0, "clock": 0, "configs": 0})
    # Node -> its configuration, node -> its TraceStep, and node -> its
    # path, as built; and each event a tick lowered -> its lowered copy.
    _nodes: dict[int, Configuration] = field(init=False, repr=False, compare=False)
    _steps: dict[int, TraceStep] = field(default_factory=dict, init=False, repr=False, compare=False)
    _paths: dict[int, tuple] = field(default_factory=lambda: {0: ()}, init=False, repr=False, compare=False)
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
        """Every node as a configuration, built on first access, in index
        order."""
        nodes, parents, packed, clocks, step = self._nodes, self.parents, self.packed, self.clocks, self.step
        out = [self.root]
        for node in range(1, len(packed)):
            cfg = nodes.get(node)
            if cfg is None:
                parent, label = parents[node]
                cfg = nodes[node] = step(out[parent], label, packed[node], clocks[node])
            out.append(cfg)
        return out

    def config(self, node: int) -> Configuration:
        """Node `node` as a configuration, built on first use from its
        nearest built ancestor."""
        nodes = self._nodes
        cfg = nodes.get(node)
        if cfg is None:
            parents, below = self.parents, []
            while cfg is None:
                below.append(node)
                node = parents[node][0]
                cfg = nodes.get(node)
            packed, clocks, step = self.packed, self.clocks, self.step
            for node in reversed(below):
                cfg = nodes[node] = step(cfg, parents[node][1], packed[node], clocks[node])
        return cfg

    def visited_states(self) -> frozenset[StateName]:
        """States reachable per the reachability definition: some visited
        configuration has that state and an empty continuation."""
        return frozenset(state for state, sigma, _ in self.packed if sigma is None)

    def path(self, node: int) -> tuple[TraceStep, ...]:
        """The steps of the tree path from the start configuration to
        `node`: a run of the rules, with true clocks."""
        out = self._paths.get(node)
        if out is not None:
            return out
        steps, parents, paths = self._steps, self.parents, self._paths
        # The nodes up to the first one with a step, from the top down, so
        # each is built from its parent.
        below, top = [], node
        while parents[top] is not None and top not in steps:
            below.append(top)
            top = parents[top][0]
        # The top's configuration is built: it is the root or has a step.
        nodes, packed, clocks, new_step = self._nodes, self.packed, self.clocks, tuple.__new__
        cfg, new = nodes[top], []
        for child in reversed(below):
            label, parent_cfg = parents[child][1], cfg
            cfg = nodes.get(child)
            if cfg is None:
                cfg = nodes[child] = self.step(parent_cfg, label, packed[child], clocks[child])
            step = steps[child] = new_step(TraceStep, (label, cfg))
            new.append(step)
        # The top's own path, kept where a later path may branch off again.
        prefix = paths.get(top)
        if prefix is None:
            above, up = [], top
            while parents[up] is not None:
                above.append(steps[up])
                up = parents[up][0]
            above.reverse()
            prefix = paths[top] = tuple(above)
        out = paths[node] = prefix + tuple(new)
        return out


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
    mode and psi cap, and expands each node by its kind.  A continuation's
    commit alone adds to psi or empties sigma, so only it meets the psi cap
    and the target test.  An idle node's firings (`table.fired`) preempt its
    calls and its tick, the one step that meets the clock cap.  Every step
    from a start over the psi cap meets that cap too."""
    start = start if start is not None else initial_config(contract)
    max_configs, max_clock, max_psi = limits.max_configs, limits.max_clock, limits.max_psi
    table = StepTable.for_search(contract, start, mode, max_psi)
    root = Configuration(contract, start.state, start.sigma, start.psi, 0)
    exploration = Exploration(table, root, [table.start], [0], [None], [])
    if target_state == start.state and start.sigma is None:
        return exploration, 0
    packed, clocks = exploration.packed, exploration.clocks
    parents, edges, pruned = exploration.parents, exploration.edges, exploration.pruned
    # The loop commits, sizes and ticks psi inline, an int or a sorted tuple
    # as the table encodes it: as table methods, the same steps cost the
    # `forward_reach` benchmark about 5 % of its queries/s.
    ints = isinstance(table, PackedStepTable)
    K, FULL, sigma_parts, fired = table.K, PackedStepTable.FULL, table.sigma_parts, table.fired
    masks, keep = (table.masks, table.keep) if ints else (None, None)
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
            target, body = sigma_parts[sigma]
            psi = psi + body if ints else tuple(sorted(psi + body)) if body else psi
            key = (target, None, psi)
            child = len(packed)
            known = lookup(key, child)
            if known != child:
                if record_edges:
                    edges.append((node, STATECHANGE, known))
            elif (psi % FULL if ints else len(psi)) > max_psi:
                turn_away(key, "psi")
            elif child >= max_configs:
                return turn_away(key, "configs")
            else:
                packed.append(key)
                clocks.append(clocks[node])
                parents.append((node, STATECHANGE))
                if record_edges:
                    edges.append((node, STATECHANGE, child))
                if target == target_state:
                    return exploration, child
                queue.append(child)
            continue
        clock = clocks[node]
        # The inline test is exact for ints; a tuple's delay-0 events may
        # all wait at other states.  Firings preempt the calls and the tick;
        # each firing comes with its key, each call with its continuation.
        firing = fired(state, psi) if (psi & masks.get(state, 0) if ints else psi and psi[0] < K) else None
        if firing:
            steps, ticks = firing, False
        else:
            steps, ticks = compiled.get(state) or compile_calls(state)
        for label, step in steps:
            key = step if firing else (state, step, psi)
            child = len(packed)
            known = lookup(key, child)
            if known != child:
                if record_edges:
                    edges.append((node, label, known))
            elif check_all and (key[2] % FULL if ints else len(key[2])) > max_psi:
                turn_away(key, "psi")
            elif child >= max_configs:
                return turn_away(key, "configs")
            else:
                packed.append(key)
                clocks.append(clock)
                parents.append((node, label))
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
                parents.append((node, TICK))
                if record_edges:
                    edges.append((node, TICK, child))
                queue.append(child)
        check_all = False
    exploration.complete = exploration.limit_hit is None
    return exploration, None


def bounded_reach(
    contract: Contract,
    target_state: StateName,
    limits: ExplorationLimits = ExplorationLimits(),
    mode: Mode = Mode.TICK,
) -> Verdict:
    """Forward semi-decision for state reachability: Reachable with a
    shortest witness (ties broken by lexicographic label order), else
    Unknown.  Never Unreachable."""
    exploration, node = explore(contract, mode, limits, target_state=target_state)
    if node is not None:
        return Verdict.reachable(Trace(exploration.path(node)))
    if exploration.limit_hit is None:
        return Verdict.unknown(f"exhausted: {len(exploration.packed)} configurations, no limit hit")
    return Verdict.unknown(exploration.limit_hit)


def reachable_states(
    contract: Contract,
    limits: ExplorationLimits = ExplorationLimits(),
    mode: Mode = Mode.TICK,
) -> frozenset[StateName]:
    """All states found reachable by one bounded forward exploration."""
    exploration, _ = explore(contract, mode, limits)
    return exploration.visited_states()


# ---------------------------------------------------------------------------
# Per-clause analysis
# ---------------------------------------------------------------------------


def unreachable_clauses(
    contract: Contract,
    limits: ExplorationLimits = ExplorationLimits(),
    mode: Mode = Mode.TICK,
) -> dict[ClauseId, Verdict]:
    """Reachability verdict for every clause of the contract.

    DI contracts get complete verdicts: a function is reachable iff its
    source state is coverable (its `nored` premise is vacuous there, since
    in DI no pending event sits at a function source), and an event is
    reachable iff its source state is coverable together with one pending
    occurrence of the event.  The DI clause targets share predecessor
    bases and decided state verdicts.  Other contracts fall back to an
    instrumented forward search and report Reachable or Unknown only.

    Verdicts are keyed by `ClauseId`, which names an event by its line-code,
    so a contract that `syntax.validate` rejects raises its error here.
    """
    validate(contract)
    verdicts: dict[ClauseId, Verdict] = {}
    if fragments.classify(contract).det_instantaneous:
        backward = _Backward(contract)
        for fn in contract.functions:
            ok = backward.decide(state_target(contract, fn.source))
            verdicts[ClauseId.of_function(fn)] = (
                Verdict.reachable() if ok else Verdict.unreachable()
            )
        for ev in contract.events():
            # Deciding the source state first, with shared work, settles
            # the events of unreachable states at once.
            ok = backward.decide(state_target(contract, ev.source)) and backward.decide(
                _fire_target(contract, ev)
            )
            verdicts[ClauseId.of_event(ev)] = (
                Verdict.reachable() if ok else Verdict.unreachable()
            )
        return verdicts

    exploration, _ = explore(contract, mode, limits, record_edges=True)
    packed, clocks, parents = exploration.packed, exploration.clocks, exploration.parents
    sigma_parts = exploration.table.sigma_parts
    # A call's clause is (source, name, target); an event's, its line-code.
    first_use: dict[tuple | int, tuple[int, Label, int]] = {}
    for edge in exploration.edges:
        node, label, child = edge
        if label.kind == "call":
            key = (packed[node][0], label.name, sigma_parts[packed[child][1]][0])
        elif label.kind == "event":
            key = label.line
        else:
            continue
        first_use.setdefault(key, edge)

    # Verdicts are immutable, so the clauses without a first use share one.
    unknown = Verdict.unknown(exploration.limit_hit)

    def witnessed(edge: tuple[int, Label, int] | None) -> Verdict:
        if edge is None:
            return unknown
        node, label, child = edge
        steps = exploration.path(node)
        # A tree edge's child is a node; any other edge is stepped from its
        # source, since a call or event step keeps the clock, and
        # clocks[child] is the clock of another path.
        if parents[child] == (node, label):
            cfg = exploration.config(child)
        else:
            cfg = exploration.step(exploration.config(node), label, packed[child], clocks[node])
        return Verdict.reachable(Trace(steps + (tuple.__new__(TraceStep, (label, cfg)),)))

    for fn in contract.functions:
        verdicts[ClauseId.of_function(fn)] = witnessed(first_use.get((fn.source, fn.name, fn.target)))
    for ev in contract.events():
        verdicts[ClauseId.of_event(ev)] = witnessed(first_use.get(ev.line))
    return verdicts


def verdict_payload(clause: ClauseId, verdict: Verdict) -> dict:
    """JSON-ready form of a per-clause verdict."""
    out = {"clause": clause.text(), "verdict": verdict.status}
    if verdict.witness is not None:
        out["witness"] = trace_payload(verdict.witness)
    return out


def verdicts_json(verdicts: Iterable[tuple[ClauseId, Verdict]]) -> str:
    """The JSON text of the list of `verdict_payload`s of `verdicts`, in
    order, compact, written in one pass without the payloads."""
    quoted = Quoted()
    texts = []
    for clause, verdict in verdicts:
        text = f'{{"clause":{quoted[clause.text()]},"verdict":{quoted[verdict.status]}'
        if verdict.witness is not None:
            text += ',"witness":[' + ",".join(step_texts(verdict.witness.steps, quoted)) + "]"
        texts.append(text + "}")
    return "[" + ",".join(texts) + "]"
