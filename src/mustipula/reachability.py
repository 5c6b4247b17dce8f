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
  finite bases of upward-closed sets terminates and is exact.  State
  reachability under the plain tick rule coincides with tick-plus
  reachability on DI contracts, so verdicts transfer.

`unreachable_clauses` analyzes every clause: complete verdicts on DI
contracts, forward-search verdicts (Reachable/Unknown) elsewhere.
"""

from __future__ import annotations

import functools
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Iterable

from .errors import DifferentContractsError, NotDIError
from .semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    Mode,
    PendingEvent,
    PendingSet,
    StepTable,
    Trace,
    TraceStep,
    initial_config,
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


@dataclass(frozen=True)
class Verdict:
    """Outcome of a reachability question.  Unreachable is only ever
    produced by the complete DI procedure; bounded search degrades to
    Unknown (with the limit that stopped it, if any)."""

    status: str  # "reachable" | "unreachable" | "unknown"
    witness: Trace | None = None
    detail: str | None = None

    @classmethod
    def reachable(cls, witness: Trace | None = None) -> "Verdict":
        return cls("reachable", witness=witness)

    @classmethod
    def unreachable(cls) -> "Verdict":
        return cls("unreachable")

    @classmethod
    def unknown(cls, detail: str | None = None) -> "Verdict":
        return cls("unknown", detail=detail)


# ---------------------------------------------------------------------------
# The ordering and bases
# ---------------------------------------------------------------------------


def config_leq(a: Configuration, b: Configuration) -> bool:
    """The well-quasi-ordering on configurations: equal state, equal sigma,
    and a's pending multiset included in b's.  Clocks are ignored."""
    if a.contract is not b.contract and a.contract != b.contract:
        raise DifferentContractsError("configurations belong to different contracts")
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
        elif cfg.contract is not self._contract and cfg.contract != self._contract:
            raise DifferentContractsError("configurations belong to different contracts")
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
    if not contract.fragment_set.det_instantaneous:
        raise NotDIError(
            "the complete procedure requires a determinate-instantaneous contract"
        )


def pred_basis(contract: Contract, target: Configuration) -> frozenset[Configuration]:
    """A finite basis of the one-step predecessors of the upward cone of
    `target` under the tick-plus relation, by case analysis on the shape of
    the target.

    Continuation targets gain predecessors from the Function rule (a clause
    at the target's state producing exactly that continuation) and from the
    Event-Match rule (a declared event at that state whose firing consumed
    one pending occurrence).  Empty-continuation targets gain State-Change
    predecessors driven by the contract's clauses - every reachable
    continuation originates from one - with the committed body subtracted
    from the pending multiset (saturating, so over-supplied events still
    yield a minimal predecessor).  When the pending multiset is empty and
    the state admits tick-plus, the target is its own minimal tick
    predecessor, since decrementing any DI multiset empties it.
    """
    _require_di(contract)
    preds = set()
    if target.sigma is not None:
        body_events, body_target = target.sigma
        for fn in contract.by_source.get(target.state, ()):
            if fn.target == body_target and fn.lowered == body_events:
                preds.add(Configuration(contract, target.state, None, target.psi, 0))
        if not body_events:
            for ev in contract.events_by_target.get(body_target, ()):
                if ev.source == target.state:
                    psi = target.psi.union([PendingEvent(0, ev.line, ev.source, ev.target)])
                    preds.add(Configuration(contract, target.state, None, psi, 0))
    else:
        for fn in contract.by_target.get(target.state, ()):
            body = Body(fn.lowered, fn.target)
            preds.add(Configuration(contract, fn.source, body, target.psi.minus(fn.lowered), 0))
        for ev in contract.events_by_target.get(target.state, ()):
            body = Body(EMPTY_PSI, target.state)
            preds.add(Configuration(contract, ev.source, body, target.psi, 0))
        if not target.psi and target.state not in contract.init_ev:
            preds.add(Configuration(contract, target.state, None, EMPTY_PSI, 0))
    return frozenset(preds)


def _validate_target(contract: Contract, target: Configuration):
    if target.contract is not contract and target.contract != contract:
        raise DifferentContractsError("target belongs to a different contract")
    if target.sigma is not None:
        raise ValueError("coverability targets must have an empty continuation")
    declared = {PendingEvent(0, ev.line, ev.source, ev.target) for ev in contract.events()}
    for inst in target.psi:
        if inst not in declared:
            raise ValueError(f"target pending event {inst} is not declared in the contract")


class _Backward:
    """The backward coverability fixpoint for one DI contract.  Predecessor
    bases and decided state verdicts are kept across targets, so the clause
    targets of one contract share their work."""

    def __init__(self, contract: Contract):
        self.contract = contract
        self.preds: dict[Configuration, frozenset[Configuration]] = {}
        # State q -> whether (q, --, --) is coverable.
        self.states: dict[StateName, bool] = {contract.init: True}

    def decide(self, target: Configuration) -> bool:
        """Whether some reachable configuration dominates `target`.

        Saturates a basis of the upward-closed set of configurations that
        cover the target with predecessor bases, in breadth-first order,
        and stops as soon as the set covers a configuration known to be
        reachable: the initial one, or (q, --, --) for a state q decided
        coverable.  An element (q, --, psi) whose state is known not
        coverable stays in the basis for subsumption but is not expanded:
        nothing in its upward cone is reachable, so nothing in its
        predecessor closure is either."""
        states = self.states
        basis = CoverBasis()
        frontier: deque[Configuration] = deque()

        def admit(cfg: Configuration) -> bool:
            """Add `cfg`; true when that settles the target as coverable."""
            if not basis.add(cfg):
                return False
            known = states.get(cfg.state) if cfg.sigma is None else None
            if known is False:
                return False
            if known and not cfg.psi:
                return True
            frontier.append(cfg)
            return False

        covered = admit(target)
        while frontier and not covered:
            cfg = frontier.popleft()
            if basis.keeps(cfg):
                covered = any(admit(p) for p in self._preds(cfg))
        if covered:
            if not target.psi:
                states[target.state] = True
        else:
            # Every element lies in the target's predecessor closure, which
            # misses the initial configuration.  An element (q, --, --)
            # covers its whole bucket, so it is alone there.
            for (state, sigma), bucket in basis._buckets.items():
                if sigma is None and not bucket[0].psi:
                    states[state] = False
        return covered

    def _preds(self, cfg: Configuration) -> frozenset[Configuration]:
        preds = self.preds.get(cfg)
        if preds is None:
            preds = self.preds[cfg] = pred_basis(self.contract, cfg)
        return preds


def decide_coverable(contract: Contract, target: Configuration) -> bool:
    """Decide, for a DI contract, whether some reachable configuration
    dominates `target` under `config_leq`.

    Backward fixpoint: saturate the basis of the upward-closed set with
    predecessor bases until it covers the initial configuration or
    stabilizes (guaranteed by the well-quasi-ordering).  The verdict holds
    for both the tick and tick-plus semantics.  A contract that
    `syntax.validate` rejects raises its error, as in `unreachable_clauses`.
    """
    validate(contract)
    _require_di(contract)
    _validate_target(contract, target)
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
    `packed[i]` in the ids of `table`, with clock `clocks[i]`, the ticks
    along its path in the BFS tree `parents`.  `complete` means no cap
    pruned anything, so the nodes are the entire reachable quotient space.

    `configs`, `config` and `path` decode on demand.  `pruned` counts, per
    limit, the steps to unvisited configurations that the limit turned
    away."""

    contract: Contract
    table: StepTable
    packed: list[tuple]
    clocks: list[int]
    parents: list[tuple[int, Label] | None]
    edges: list[tuple[int, Label, int]]
    complete: bool = False
    limit_hit: str | None = None
    pruned: dict[str, int] = field(default_factory=lambda: {"psi": 0, "clock": 0, "configs": 0})

    @functools.cached_property
    def configs(self) -> list[Configuration]:
        """Every node as a configuration, built on first access."""
        contract, decode = self.contract, self.table.decode
        return [Configuration(contract, *decode(key), clock) for key, clock in zip(self.packed, self.clocks)]

    def config(self, node: int) -> Configuration:
        """Node `node` as a configuration: the cached one once `configs`
        has been built."""
        built = self.__dict__.get("configs")
        if built is not None:
            return built[node]
        return Configuration(self.contract, *self.table.decode(self.packed[node]), self.clocks[node])

    def visited_states(self) -> frozenset[StateName]:
        """States reachable per the reachability definition: some visited
        configuration has that state and an empty continuation."""
        return frozenset(state for state, sigma, _ in self.packed if sigma is None)

    def path(self, node: int) -> tuple[TraceStep, ...]:
        """The steps of the tree path from the start configuration to
        `node`: a run of the rules, with true clocks."""
        steps = []
        while self.parents[node] is not None:
            parent, label = self.parents[node]
            steps.append(TraceStep(label, self.config(node)))
            node = parent
        steps.reverse()
        return tuple(steps)


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

    The search steps on a `StepTable` built for this contract, start and
    mode."""
    start = start if start is not None else initial_config(contract)
    table = StepTable(contract, start, mode)
    exploration = Exploration(contract, table, [table.start], [0], [None], [])
    if target_state == start.state and start.sigma is None:
        return exploration, 0
    packed, clocks = exploration.packed, exploration.clocks
    parents, edges, pruned = exploration.parents, exploration.edges, exploration.pruned
    max_configs, max_clock, max_psi = limits.max_configs, limits.max_clock, limits.max_psi
    step = table.moves
    index = {table.start: 0}
    queue = deque([0])
    while queue:
        node = queue.popleft()
        clock = clocks[node]
        for label, key, ticks in step(*packed[node]):
            known = index.get(key)
            if known is not None:
                if record_edges:
                    edges.append((node, label, known))
                continue
            if len(key[2]) > max_psi:
                exploration.limit_hit = "psi"
                pruned["psi"] += 1
                continue
            if clock + ticks > max_clock:
                exploration.limit_hit = "clock"
                pruned["clock"] += 1
                continue
            if len(packed) >= max_configs:
                exploration.limit_hit = "configs"
                pruned["configs"] += 1
                return exploration, None
            child = index[key] = len(packed)
            packed.append(key)
            clocks.append(clock + ticks)
            parents.append((node, label))
            if record_edges:
                edges.append((node, label, child))
            if key[0] == target_state and key[1] is None:
                return exploration, child
            queue.append(child)
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


def _edge_clause(exploration: Exploration, edge) -> ClauseId | None:
    node, label, child = edge
    if label.kind == "call":
        packed = exploration.packed
        target = exploration.table.sigma_parts[packed[child][1]][0]
        return ClauseId("function", packed[node][0], label.name, target)
    if label.kind == "event":
        ev = exploration.contract.event_at_line(label.line)
        return ClauseId.of_event(ev)
    return None


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
    if contract.fragment_set.det_instantaneous:
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
    first_use: dict[ClauseId, tuple[int, Label, int]] = {}
    for edge in exploration.edges:
        clause = _edge_clause(exploration, edge)
        if clause is not None and clause not in first_use:
            first_use[clause] = edge
    for fn in contract.functions:
        verdicts[ClauseId.of_function(fn)] = Verdict.unknown(exploration.limit_hit)
    for ev in contract.events():
        verdicts[ClauseId.of_event(ev)] = Verdict.unknown(exploration.limit_hit)
    for clause, (node, label, child) in first_use.items():
        # A call or event step keeps the clock; clocks[child] may be the
        # clock of another path.
        last = replace(exploration.config(child), clock=exploration.clocks[node])
        steps = exploration.path(node) + (TraceStep(label, last),)
        verdicts[clause] = Verdict.reachable(Trace(steps))
    return verdicts


def verdict_payload(clause: ClauseId, verdict: Verdict) -> dict:
    """JSON-ready form of a per-clause verdict."""
    out = {"clause": clause.text(), "verdict": verdict.status}
    if verdict.witness is not None:
        out["witness"] = trace_payload(verdict.witness)
    return out
