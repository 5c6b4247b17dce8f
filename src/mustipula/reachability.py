"""State and clause reachability.

Two routes:

* `bounded_reach` - breadth-first forward search, any contract, any mode.
  A semi-decision: it answers Reachable with a witness or Unknown, never
  Unreachable.  The clock is canonicalized to 0 throughout (no rule reads
  it), so the search runs over the quotient (state, sigma, psi).

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

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from . import fragments
from .errors import DifferentContractsError, NotDIError
from .semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    Mode,
    PendingEvent,
    PendingSet,
    Trace,
    TraceStep,
    initial_config,
    successors,
)
from .syntax import ClauseId, Contract, StateName


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


@dataclass(frozen=True)
class CoverBasis:
    """A finite antichain of minimal configurations denoting the
    upward-closed set that is the union of their upward cones."""

    elements: frozenset[Configuration]

    def covers(self, cfg: Configuration) -> bool:
        return any(config_leq(b, cfg) for b in self.elements)


def minimize_basis(configs: Iterable[Configuration]) -> CoverBasis:
    """Keep only the minimal elements; the denoted upward-closed set is
    unchanged."""
    elems = list(dict.fromkeys(configs))
    minimal = [
        cand
        for cand in elems
        if not any(other != cand and config_leq(other, cand) for other in elems)
    ]
    return CoverBasis(frozenset(minimal))


# ---------------------------------------------------------------------------
# Backward coverability (DI only)
# ---------------------------------------------------------------------------


def _canon(cfg: Configuration) -> Configuration:
    if cfg.clock == 0:
        return cfg
    return Configuration(cfg.contract, cfg.state, cfg.sigma, cfg.psi, 0)


def _require_di(contract: Contract):
    if not fragments.classify(contract).det_instantaneous:
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
    t = _canon(target)
    preds = set()
    if t.sigma is not None:
        body_events, body_target = t.sigma
        for fn in contract.by_source.get(t.state, ()):
            if fn.target == body_target and fn.lowered == body_events:
                preds.add(Configuration(contract, t.state, None, t.psi, 0))
        if not body_events:
            for ev in contract.events():
                if ev.source == t.state and ev.target == body_target:
                    psi = t.psi.union([PendingEvent(0, ev.line, ev.source, ev.target)])
                    preds.add(Configuration(contract, t.state, None, psi, 0))
    else:
        for fn in contract.functions:
            if fn.target == t.state:
                body = Body(fn.lowered, fn.target)
                preds.add(Configuration(contract, fn.source, body, t.psi.minus(fn.lowered), 0))
        for ev in contract.events():
            if ev.target == t.state:
                body = Body(EMPTY_PSI, t.state)
                preds.add(Configuration(contract, ev.source, body, t.psi, 0))
        if not t.psi and t.state not in fragments.init_ev(contract):
            preds.add(Configuration(contract, t.state, None, EMPTY_PSI, 0))
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


def decide_coverable(contract: Contract, target: Configuration) -> bool:
    """Decide, for a DI contract, whether some reachable configuration
    dominates `target` under `config_leq`.

    Backward fixpoint: saturate the basis of the upward-closed set with
    predecessor bases until it stabilizes (guaranteed by the
    well-quasi-ordering), then test whether it covers the initial
    configuration.  The verdict holds for both the tick and tick-plus
    semantics.
    """
    _require_di(contract)
    _validate_target(contract, target)

    basis: list[Configuration] = [_canon(target)]
    frontier = deque(basis)
    while frontier:
        t = frontier.popleft()
        if not any(config_leq(b, t) for b in basis if b != t):
            for p in pred_basis(contract, t):
                if any(config_leq(b, p) for b in basis):
                    continue
                basis = [b for b in basis if not config_leq(p, b)]
                basis.append(p)
                frontier.append(p)
    init = initial_config(contract)
    return any(config_leq(b, init) for b in basis)


def state_target(contract: Contract, state: StateName) -> Configuration:
    """The coverability target for state reachability: (state, --, --)."""
    return Configuration(contract, state, None, EMPTY_PSI, 0)


def event_target(contract: Contract, line: int) -> Configuration:
    """The coverability target for firing the event declared at `line`: its
    source state with exactly that pending occurrence at delay 0."""
    ev = contract.event_at_line(line)
    if ev is None:
        raise ValueError(f"no event declared at line {line}")
    inst = PendingEvent(0, ev.line, ev.source, ev.target)
    return Configuration(contract, ev.source, None, PendingSet([inst]), 0)


# ---------------------------------------------------------------------------
# Forward exploration
# ---------------------------------------------------------------------------


@dataclass
class Exploration:
    """Result of a breadth-first forward search over the clock-erased
    configuration graph.  `complete` means no cap was hit, so `configs`
    is the entire reachable quotient space."""

    contract: Contract
    mode: Mode
    configs: list[Configuration]
    parents: list[tuple[int, Label] | None]
    edges: list[tuple[int, Label, int]]
    complete: bool
    limit_hit: str | None

    def visited_states(self) -> frozenset[StateName]:
        """States reachable per the reachability definition: some visited
        configuration has that state and an empty continuation."""
        return frozenset(c.state for c in self.configs if c.sigma is None)


def explore(
    contract: Contract,
    mode: Mode = Mode.TICK,
    limits: ExplorationLimits = ExplorationLimits(),
    record_edges: bool = False,
    target_state: StateName | None = None,
    start: Configuration | None = None,
) -> tuple[Exploration, int | None]:
    """BFS from the initial configuration (or `start`) with the clock
    canonicalized to 0 and a visited set over (state, sigma, psi); ticks
    count along the first path that reaches each configuration.
    Successors expand in lexicographic label order, so witnesses are
    deterministic.  Returns the exploration and, when `target_state` is
    given and some visited configuration has that state with an empty
    continuation, its node."""
    start = _canon(start if start is not None else initial_config(contract))
    configs = [start]
    parents: list[tuple[int, Label] | None] = [None]
    ticks = [0]
    index = {(start.state, start.sigma, start.psi): 0}
    edges: list[tuple[int, Label, int]] = []
    limit_hit = None
    found = 0 if target_state == start.state and start.sigma is None else None

    if found is not None and target_state is not None:
        return (
            Exploration(contract, mode, configs, parents, edges, False, None),
            found,
        )

    queue = deque([0])
    while queue:
        node = queue.popleft()
        cfg = configs[node]
        for label, nxt in sorted(successors(cfg, mode), key=lambda s: s[0].text()):
            nxt = _canon(nxt)
            if len(nxt.psi) > limits.max_psi:
                limit_hit = "psi"
                continue
            if label.kind == "tick" and ticks[node] + 1 > limits.max_clock:
                limit_hit = "clock"
                continue
            key = (nxt.state, nxt.sigma, nxt.psi)
            known = index.get(key)
            if known is not None:
                if record_edges:
                    edges.append((node, label, known))
                continue
            if len(configs) >= limits.max_configs:
                limit_hit = "configs"
                exploration = Exploration(
                    contract, mode, configs, parents, edges, False, limit_hit
                )
                return exploration, None
            index[key] = len(configs)
            configs.append(nxt)
            parents.append((node, label))
            ticks.append(ticks[node] + (1 if label.kind == "tick" else 0))
            if record_edges:
                edges.append((node, label, len(configs) - 1))
            if target_state is not None and nxt.state == target_state and nxt.sigma is None:
                exploration = Exploration(
                    contract, mode, configs, parents, edges, False, limit_hit
                )
                return exploration, len(configs) - 1
            queue.append(len(configs) - 1)

    exploration = Exploration(
        contract, mode, configs, parents, edges, limit_hit is None, limit_hit
    )
    return exploration, found


def _path_labels(exploration: Exploration, node: int) -> list[Label]:
    labels = []
    while True:
        parent = exploration.parents[node]
        if parent is None:
            break
        node, label = parent
        labels.insert(0, label)
    return labels


def _replay(contract: Contract, labels: list[Label], mode: Mode) -> Trace:
    """Re-run a label sequence from the initial configuration to
    re-materialize true clock values in the witness."""
    cfg = initial_config(contract)
    steps = []
    for label in labels:
        for cand_label, cand_cfg in successors(cfg, mode):
            if cand_label == label:
                cfg = cand_cfg
                steps.append(TraceStep(label, cfg))
                break
        else:
            raise AssertionError(f"witness replay failed at {label.text()}")
    return Trace(tuple(steps))


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
        labels = _path_labels(exploration, node)
        return Verdict.reachable(_replay(contract, labels, mode))
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
        source = exploration.configs[node].state
        sigma = exploration.configs[child].sigma
        return ClauseId("function", source, label.name, sigma.target)
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
    occurrence of the event.  Other contracts fall back to an instrumented
    forward search and report Reachable or Unknown only.
    """
    verdicts: dict[ClauseId, Verdict] = {}
    if fragments.classify(contract).det_instantaneous:
        for fn in contract.functions:
            ok = decide_coverable(contract, state_target(contract, fn.source))
            verdicts[ClauseId.of_function(fn)] = (
                Verdict.reachable() if ok else Verdict.unreachable()
            )
        for ev in contract.events():
            ok = decide_coverable(contract, event_target(contract, ev.line))
            verdicts[ClauseId.of_event(ev)] = (
                Verdict.reachable() if ok else Verdict.unreachable()
            )
        return verdicts

    exploration, _ = explore(contract, mode, limits, record_edges=True)
    first_use: dict[ClauseId, tuple[int, Label]] = {}
    for edge in exploration.edges:
        clause = _edge_clause(exploration, edge)
        if clause is not None and clause not in first_use:
            first_use[clause] = (edge[0], edge[1])
    for fn in contract.functions:
        verdicts[ClauseId.of_function(fn)] = Verdict.unknown(exploration.limit_hit)
    for ev in contract.events():
        verdicts[ClauseId.of_event(ev)] = Verdict.unknown(exploration.limit_hit)
    for clause, (node, label) in first_use.items():
        labels = _path_labels(exploration, node) + [label]
        verdicts[clause] = Verdict.reachable(_replay(contract, labels, mode))
    return verdicts


def verdict_payload(clause: ClauseId, verdict: Verdict) -> dict:
    """JSON-ready form of a per-clause verdict."""
    from .semantics import trace_payload

    out = {"clause": clause.text(), "verdict": verdict.status}
    if verdict.witness is not None:
        out["witness"] = trace_payload(verdict.witness)
    return out
