"""Shared test fixtures: golden contract sources, a seeded DI-contract
generator, configuration enumeration for exhaustive checks, reference
engines for differential tests, the counter machine suite, and denotation
matchers for the encoding properties."""

from __future__ import annotations

import itertools
import random
from bisect import bisect_right
from collections import Counter, deque

import mustipula as mu
from mustipula.reachability import _Backward
from mustipula.semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    PendingEvent,
    PendingSet,
    Trace,
    TraceStep,
)
from mustipula.syntax import ClauseId, Contract, EventDecl, FunctionDecl, TimeExpr

PINGPONG = """stipula PingPong {
   init Q0
   @Q0 ping {
       now + 1 >> @Q1 => @Q2
   } => @Q1
   @Q2 pong {
       now + 2 >> @Q3 => @Q0
   } => @Q3
}
"""

SAMPLE = """stipula Sample {
   init Init
   @Init f {
       now + 0 >> @Go => @End
   } => @Run
   @Init g { } => @Go
}
"""

CHAIN = """stipula Chain {
  init A
  @A f {
    now >> @B => @C
  } => @B
}
"""

EMPTY = "stipula E { init Q }\n"

GOLDEN_LABELS = [
    "call:ping",
    "statechange",
    "tick",
    "ev:4",
    "statechange",
    "call:pong",
    "statechange",
    "tick",
    "tick",
    "ev:7",
    "statechange",
]


def pingpong() -> Contract:
    return mu.parse(PINGPONG)


def sample() -> Contract:
    return mu.parse(SAMPLE)


def chain() -> Contract:
    return mu.parse(CHAIN)


def replay_labels(contract: Contract, labels, mode=mu.Mode.TICK) -> mu.Trace:
    """Drive successors() along a label-text sequence; fail if a label is
    not enabled at some step."""
    cfg = mu.initial_config(contract)
    steps = []
    for want in labels:
        options = {lab.text(): (lab, nxt) for lab, nxt in mu.successors(cfg, mode)}
        assert want in options, f"label {want} not enabled; have {sorted(options)}"
        lab, cfg = options[want]
        steps.append(mu.TraceStep(lab, cfg))
    return mu.Trace(tuple(steps))


def contract_payload(contract: Contract) -> dict:
    """The tree that `parse --json` writes as text: the reference for
    `cli._contract_json`."""
    return {
        "name": contract.name,
        "init": contract.init,
        "functions": [
            {
                "source": fn.source,
                "name": fn.name,
                "target": fn.target,
                "events": [
                    {
                        "delay": ev.time.offset,
                        "line": ev.line,
                        "source": ev.source,
                        "target": ev.target,
                    }
                    for ev in fn.body
                ],
            }
            for fn in contract.functions
        ],
    }


def _psi_payload(psi: PendingSet) -> list:
    return [[ev.delay, ev.line, ev.source, ev.target] for ev in psi]


def step_payload(step: TraceStep) -> dict:
    """The tree of one step: the label, the reached state, sigma, psi and
    the clock.  The reference for `semantics.step_texts`."""
    cfg, sigma = step.config, step.config.sigma
    return {
        "label": step.label.text(),
        "state": cfg.state,
        "sigma": None if sigma is None else {"events": _psi_payload(sigma.events), "target": sigma.target},
        "psi": _psi_payload(cfg.psi),
        "clock": cfg.clock,
    }


def trace_payload(trace: Trace) -> list:
    """One `step_payload` per step: the reference for `trace_json`."""
    return [step_payload(step) for step in trace.steps]


def verdict_payload(clause: ClauseId, verdict: mu.Verdict) -> dict:
    """The tree of one per-clause verdict: the reference for each entry of
    `reachability.verdicts_json`."""
    out = {"clause": clause.text(), "verdict": verdict.status}
    if verdict.witness is not None:
        out["witness"] = trace_payload(verdict.witness)
    return out


def odd_names() -> Contract:
    """A contract built in code whose names need JSON escapes: a quote, a
    backslash, control characters, a non-ASCII letter and one outside the
    Basic Multilingual Plane.  Its delays make it non-DI, and both modes
    can run it for ever."""
    a, b, c, d = 'Q"0', "Q\\1", "Q\x07\n2", "Q\u00e9\U0001d514"
    return Contract(
        'Odd "C" \\ \x01 \u00e9',
        a,
        (
            FunctionDecl(a, 'f"1', (EventDecl(TimeExpr(0), b, c, 4), EventDecl(TimeExpr(2), a, d, 5)), b),
            FunctionDecl(b, "g\\\u00e9", (), c),
            FunctionDecl(c, "h\x01", (EventDecl(TimeExpr(1), d, a, 9),), d),
            FunctionDecl(d, "k", (), a),
        ),
    )


# ---------------------------------------------------------------------------
# Seeded corpus of determinate-instantaneous contracts
# ---------------------------------------------------------------------------

CORPUS_SEED = 20260808
CORPUS_SIZE = 200


def random_di_contract(rng, max_states=5, max_clauses=6, max_events=4) -> Contract:
    """A random DI contract: function sources F*, event sources E* (disjoint
    by construction), all event delays zero."""
    fun_states = [f"F{i}" for i in range(rng.randint(1, max_states))]
    ev_states = [f"E{i}" for i in range(rng.randint(1, max_states))]
    all_states = fun_states + ev_states
    total = 0
    funcs = []
    for i in range(rng.randint(1, max_clauses)):
        n_ev = min(rng.choice([0, 0, 1, 1, 1, 2]), max_events - total)
        total += n_ev
        body = tuple(
            EventDecl(TimeExpr(0), rng.choice(ev_states), rng.choice(all_states), 0)
            for _ in range(n_ev)
        )
        funcs.append(FunctionDecl(rng.choice(fun_states), f"f{i}", body, rng.choice(all_states)))
    return mu.renumber(Contract("G", rng.choice(all_states), tuple(funcs)))


def di_corpus(size=CORPUS_SIZE, seed=CORPUS_SEED, **kwargs) -> list[Contract]:
    rng = random.Random(seed)
    return [random_di_contract(rng, **kwargs) for _ in range(size)]


def lively_contract(rng, n_functions=200, n_states=50) -> Contract:
    """A random contract that keeps a walk busy: several functions per state
    (function i leaves state i mod n_states), delays mixed 0-3, and event
    sources only on the first quarter of the states, so tick-plus can still
    tick outside them."""
    states = [f"L{i}" for i in range(n_states)]
    ev_sources = states[: max(1, n_states // 4)]
    funcs = []
    for i in range(n_functions):
        body = tuple(
            EventDecl(TimeExpr(rng.randint(0, 3)), rng.choice(ev_sources), rng.choice(states), 0)
            for _ in range(rng.choice([0, 1, 1, 2]))
        )
        funcs.append(FunctionDecl(states[i % n_states], f"g{i}", body, rng.choice(states)))
    return mu.renumber(Contract("Lively", rng.choice(states), tuple(funcs)))


# ---------------------------------------------------------------------------
# Exhaustive configuration enumeration (well-formed shapes)
# ---------------------------------------------------------------------------


def wf_sigmas(contract: Contract):
    """The continuation shapes a run can exhibit: empty anywhere, a lowered
    function body at the function's source, an empty body at an event's
    source."""
    out = [(None, None)]
    for fn in contract.functions:
        out.append((fn.source, Body(mu.lower(fn.body), fn.target)))
    for ev in contract.events():
        out.append((ev.source, Body(EMPTY_PSI, ev.target)))
    return out


def event_instances(contract: Contract) -> list[PendingEvent]:
    return [
        PendingEvent(0, ev.line, ev.source, ev.target)
        for ev in contract.events()
        if ev.time.offset == 0
    ]


def psis_upto(contract: Contract, k: int) -> list[PendingSet]:
    """All pending multisets of size at most k over the contract's declared
    delay-zero events."""
    insts = event_instances(contract)
    out = set()
    for size in range(k + 1):
        for combo in itertools.combinations_with_replacement(insts, size):
            out.add(PendingSet(combo))
    return sorted(out)


def submultisets(psi: PendingSet):
    items = sorted(Counter(psi).items())
    choices = [[(ev, k) for k in range(cnt + 1)] for ev, cnt in items]
    for pick in itertools.product(*choices):
        yield PendingSet([ev for ev, k in pick for _ in range(k)])


def wf_configs(contract: Contract, max_psi: int) -> list[Configuration]:
    configs = []
    states = sorted(contract.states())
    psis = psis_upto(contract, max_psi)
    for anchor, sigma in wf_sigmas(contract):
        for state in states if anchor is None else [anchor]:
            for psi in psis:
                configs.append(Configuration(contract, state, sigma, psi, 0))
    return configs


def _reference_fixpoint(contract: Contract, target: Configuration):
    """The backward fixpoint as the engine first ran it: a flat basis list,
    rescanned for every popped target and every predecessor, saturated to
    the end.  Returns the final basis and every (target, predecessor) pair
    pred_basis produced along the way.

    The predecessor bases come from one `_Backward` compiled for the whole
    fixpoint and decoded as `pred_basis` decodes them; the first one is
    checked against the public `pred_basis`."""
    backward = _Backward(contract)

    def preds(t: Configuration) -> frozenset[Configuration]:
        return frozenset(map(backward.config, backward.packed(backward._preds, t)))

    assert mu.pred_basis(contract, target) == preds(target)
    basis = [target]
    frontier = deque(basis)
    pairs = []
    while frontier:
        t = frontier.popleft()
        if any(mu.config_leq(b, t) for b in basis if b != t):
            continue
        for p in preds(t):
            pairs.append((t, p))
            if any(mu.config_leq(b, p) for b in basis):
                continue
            basis = [b for b in basis if not mu.config_leq(p, b)]
            basis.append(p)
            frontier.append(p)
    return basis, pairs


def coverability_fixpoint_pairs(contract: Contract, target: Configuration):
    """Replicate the backward fixpoint, yielding every (target, predecessor)
    pair pred_basis produced along the way."""
    return _reference_fixpoint(contract, target)[1]


def reference_decide_coverable(contract: Contract, target: Configuration) -> bool:
    """The reference verdict: whether the saturated flat basis covers the
    initial configuration."""
    basis, _ = _reference_fixpoint(contract, target)
    init = mu.initial_config(contract)
    return any(mu.config_leq(b, init) for b in basis)


def reference_pred_basis(contract: Contract, target: Configuration) -> frozenset[Configuration]:
    """`pred_basis` as a case analysis on configurations, before the engine
    ran on packed elements."""
    preds = set()
    if target.sigma is not None:
        body_events, body_target = target.sigma
        for fn in contract.by_source.get(target.state, ()):
            if fn.target == body_target and mu.lower(fn.body) == body_events:
                preds.add(Configuration(contract, target.state, None, target.psi, 0))
        if not body_events:
            for ev in contract.events():
                if (ev.source, ev.target) == (target.state, body_target):
                    psi = target.psi.union([PendingEvent(0, ev.line, ev.source, ev.target)])
                    preds.add(Configuration(contract, target.state, None, psi, 0))
    else:
        for fn in contract.functions:
            if fn.target == target.state:
                # Multiset difference, saturating at empty.
                lowered = mu.lower(fn.body)
                psi = PendingSet((Counter(target.psi) - Counter(lowered)).elements())
                preds.add(Configuration(contract, fn.source, Body(lowered, fn.target), psi, 0))
        for ev in contract.events():
            if ev.target == target.state:
                body = Body(EMPTY_PSI, target.state)
                preds.add(Configuration(contract, ev.source, body, target.psi, 0))
        if not target.psi and target.state not in contract.init_ev:
            preds.add(Configuration(contract, target.state, None, EMPTY_PSI, 0))
    return frozenset(preds)


class ReferenceBackward:
    """The backward fixpoint before it ran on packed elements: a
    `CoverBasis` of configurations, saturated with `reference_pred_basis`
    in breadth-first order.  Predecessor bases and decided state verdicts
    are kept across targets."""

    def __init__(self, contract: Contract):
        self.contract = contract
        self.preds: dict[Configuration, frozenset[Configuration]] = {}
        # State q -> whether (q, --, --) is coverable.
        self.states: dict[str, bool] = {contract.init: True}

    def decide(self, target: Configuration) -> bool:
        """Whether some reachable configuration dominates `target`.  Stops
        as soon as the basis covers the initial configuration or (q, --, --)
        for a state q decided coverable; an element whose state is known
        not coverable is kept for subsumption but not expanded."""
        states = self.states
        basis = mu.CoverBasis()
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
            for cfg in basis.elements:
                if cfg.sigma is None and not cfg.psi:
                    states[cfg.state] = False
        return covered

    def _preds(self, cfg: Configuration) -> frozenset[Configuration]:
        preds = self.preds.get(cfg)
        if preds is None:
            preds = self.preds[cfg] = reference_pred_basis(self.contract, cfg)
        return preds


def reference_unreachable_clauses(contract: Contract) -> dict:
    """`unreachable_clauses` on a DI contract, decided by
    `ReferenceBackward`: clause -> whether it is reachable."""
    backward = ReferenceBackward(contract)
    out = {}
    for fn in contract.functions:
        out[ClauseId.of_function(fn)] = backward.decide(mu.state_target(contract, fn.source))
    for ev in contract.events():
        source = backward.decide(mu.state_target(contract, ev.source))
        out[ClauseId.of_event(ev)] = source and backward.decide(mu.event_target(contract, ev.line))
    return out


def all_clause_targets(contract: Contract) -> list[Configuration]:
    targets = [mu.state_target(contract, q) for q in sorted(contract.states())]
    targets += [mu.event_target(contract, ev.line) for ev in contract.events()]
    return targets


# ---------------------------------------------------------------------------
# The forward engine before the packed step function
# ---------------------------------------------------------------------------


def reference_successors(cfg: Configuration, mode=mu.Mode.TICK) -> list:
    """`successors` as it was written before it stepped through `_enabled`
    and `_take`: a fresh Label and Configuration per successor, and every
    pending multiset rebuilt through the sorting constructor."""
    contract, state, psi, clock = cfg.contract, cfg.state, cfg.psi, cfg.clock
    if cfg.sigma is not None:
        body_events, target = cfg.sigma
        nxt = Configuration(contract, target, None, PendingSet(psi + body_events), clock)
        return [(Label("statechange"), nxt)]

    out = []
    events = sorted({ev for ev in psi if ev.delay == 0 and ev.source == state})
    for ev in events:
        rest = list(psi)
        rest.remove(ev)
        nxt = Configuration(contract, state, Body(EMPTY_PSI, ev.target), PendingSet(rest), clock)
        out.append((Label("event", line=ev.line), nxt))
    if events:
        return out

    for fn in contract.functions:
        if fn.source == state:
            body = Body(mu.lower(fn.body), fn.target)
            out.append((Label("call", name=fn.name), Configuration(contract, state, body, psi, clock)))
    if mode is mu.Mode.TICK or all(ev.source != state for ev in contract.events()):
        ticked = PendingSet(
            PendingEvent(ev.delay - 1, ev.line, ev.source, ev.target) for ev in psi if ev.delay > 0
        )
        out.append((Label("tick"), Configuration(contract, state, None, ticked, clock + 1)))
    return out


def reference_explore(contract: Contract, mode, limits, start: Configuration | None = None):
    """BFS over `reference_successors` in label-text order, deduplicating on
    (state, sigma, psi).  A step to a visited configuration is only an edge;
    the psi, clock and configuration caps apply, in that order, to new
    configurations.  Returns (configs, parents, complete, limit_hit)."""
    start = start if start is not None else mu.initial_config(contract)
    start = Configuration(contract, start.state, start.sigma, start.psi, 0)
    configs, parents = [start], [None]
    index = {(start.state, start.sigma, start.psi): 0}
    queue = deque([0])
    limit_hit = None
    while queue:
        node = queue.popleft()
        steps = sorted(reference_successors(configs[node], mode), key=lambda s: s[0].text())
        for label, nxt in steps:
            key = (nxt.state, nxt.sigma, nxt.psi)
            if key in index:
                continue
            if len(nxt.psi) > limits.max_psi:
                limit_hit = "psi"
                continue
            if nxt.clock > limits.max_clock:
                limit_hit = "clock"
                continue
            if len(configs) >= limits.max_configs:
                return configs, parents, False, "configs"
            index[key] = len(configs)
            configs.append(nxt)
            parents.append((node, label))
            queue.append(index[key])
    return configs, parents, limit_hit is None, limit_hit


def decode(table, key: tuple) -> tuple:
    """A search's packed key as (state, sigma, psi), read afresh from the
    table's shapes: a tuple psi holds the sorted codes `delay * K + shape`,
    and a packed one a count per shape and delay, from its base bit up."""
    state, sigma, psi = key
    K, shapes = table.K, table.shapes
    if isinstance(psi, int):
        bases, codes, rest = table.bases, [], psi
        while rest:
            bit = (rest & -rest).bit_length() - 1 & ~7  # the field's lowest bit
            count = rest >> bit & table.FULL
            shape = bisect_right(bases, bit) - 1
            codes += [(bit - bases[shape] >> 3) * K + shape] * count
            rest -= count << bit
        psi = sorted(codes)
    events = [PendingEvent(code // K, *shapes[code % K]) for code in psi]
    return state, None if sigma is None else table.sigmas[sigma], PendingSet(events)


def links(exploration) -> list:
    """`exploration`'s BFS tree in `reference_explore`'s form: None at the
    root, then per node its (tree parent, label on its tree edge), read from
    the search's two lists."""
    parents, labels = exploration.parents, exploration.labels
    assert len(parents) == len(labels) == len(exploration.packed)
    return [None if parent is None and label is None else (parent, label) for parent, label in zip(parents, labels)]


def reference_path(configs, parents, node: int) -> tuple[TraceStep, ...]:
    """The tree path to `node` over `reference_explore`'s configs and
    parents, walked afresh on every call."""
    steps = []
    while parents[node] is not None:
        parent, label = parents[node]
        steps.append(TraceStep(label, configs[node]))
        node = parent
    return tuple(reversed(steps))


def reference_run_random(contract: Contract, steps: int, seed: int, mode=mu.Mode.TICK) -> Trace:
    """`run_random` over `reference_successors`."""
    rng = random.Random(seed)
    cfg = mu.initial_config(contract)
    taken = []
    for _ in range(steps):
        options = reference_successors(cfg, mode)
        if not options:
            break
        label, cfg = rng.choice(options)
        taken.append(TraceStep(label, cfg))
    return Trace(tuple(taken))


# ---------------------------------------------------------------------------
# Counter machine suite
# ---------------------------------------------------------------------------

# All machines are self-loop free (split self-loops with a fresh state, the
# usual normal form) and their zero branches jump to states the run visits
# anyway; the encodings simulate this class faithfully.
MACHINES = {
    # Halts at (QF, 0, 1) in 3 steps.
    "inc_dec_inc": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q2\nQ2: inc r2 QF\n",
    # Empty program, init = final: halts immediately.
    "trivial": "init Q0\nfinal Q0\n",
    # Pushes r1 to 1, comes back down through two states, halts at (0, 0).
    "count_down": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q2\nQ2: decjump r1 QF Q1\n",
    # Bounces r2 through a zero test before halting at (0, 0).
    "r2_zero_hop": "init Q0\nfinal QF\nQ0: inc r2 Q1\nQ1: decjump r2 Q0 Q3\nQ3: decjump r2 QF Q0\n",
    # Oscillates r1 between 0 and 1 forever; QF needs a zero that never holds.
    "r1_oscillator": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q0\n",
    # Cycles r2 forever with both branches pointing back to the start.
    "r2_cycle": "init Q0\nfinal QF\nQ0: inc r2 Q1\nQ1: decjump r2 Q0 Q0\n",
}

HALTING = {"inc_dec_inc": True, "trivial": True, "count_down": True,
           "r2_zero_hop": True, "r1_oscillator": False, "r2_cycle": False}


def machine_suite():
    return {name: mu.parse_minsky(text) for name, text in MACHINES.items()}


def inc_chain(n: int):
    """The machine `Qi: inc r1 Q{i+1}` for i < n, then `Qn: decjump r1 QF
    Qn`.  It halts at QF after 2n+1 steps."""
    lines = ["init Q0", "final QF"]
    lines += [f"Q{i}: inc r1 Q{i + 1}" for i in range(n)]
    lines.append(f"Q{n}: decjump r1 QF Q{n}")
    return mu.parse_minsky("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Denotation matchers (line-codes erased)
# ---------------------------------------------------------------------------


def erase_lines(psi) -> tuple:
    return tuple(sorted((e.delay, e.source, e.target) for e in psi))


def match_denotation_i(state, psi):
    """Parse psi as the instantaneous denotation of (state, v1, v2); None if
    it is not one.  No residue is permitted."""
    events = list(erase_lines(psi))
    anchor = (0, f"_a_{state}", f"_b_{state}")
    if events.count(anchor) != 1:
        return None
    events.remove(anchor)
    v1 = events.count((0, "_dec1", "_ackdec1"))
    v2 = events.count((0, "_dec2", "_ackdec2"))
    return (v1, v2) if len(events) == v1 + v2 else None


def match_denotation_ta(state, psi):
    """Parse psi as the time-ahead denotation of (state, v1, v2) plus the
    permitted residue of leftover events targeting `_end`."""
    events = list(erase_lines(psi))
    token = (1, state, "_end")
    if token not in events:
        return None
    events.remove(token)
    v1 = events.count((1, "_dec1", "_ackdec1"))
    v2 = events.count((1, "_dec2", "_ackdec2"))
    rest = [
        e for e in events if e not in ((1, "_dec1", "_ackdec1"), (1, "_dec2", "_ackdec2"))
    ]
    return (v1, v2) if all(target == "_end" for _, _, target in rest) else None


def match_denotation_d(state, psi, allow_shift=True):
    """Parse psi as the determinate denotation of (state, v1, v2) with
    either sibling anchor, exactly or (entry configurations) one tick before
    the canonical delays."""
    events = erase_lines(psi)
    shifts = (0, 1) if allow_shift else (0,)
    for shift in shifts:
        v1 = sum(1 for e in events if e == (1 + shift, "_dec1", "_ackdec1"))
        v2 = sum(1 for e in events if e == (3 + shift, "_dec2", "_ackdec2"))
        for anchor in ("A", "B"):
            want = tuple(
                sorted(
                    (d + shift, s, t)
                    for d, s, t in erase_lines(mu.denote_registers("d", v1, v2, anchor))
                )
            )
            if events == want:
                return (v1, v2)
    return None


DENOTATION_MATCHERS = {
    "i": match_denotation_i,
    "ta": match_denotation_ta,
    "d": match_denotation_d,
}


def machine_entry_edges(encoded: Contract, machine, limits) -> list[tuple]:
    """Every explored edge that enters a machine state from an auxiliary
    one, paired with the configuration it lands on."""
    exploration, _ = mu.explore(encoded, mu.Mode.TICK, limits, record_edges=True)
    mstates = machine.states
    entries = []
    for u, label, v in exploration.edges:
        src = exploration.configs[u]
        dst = exploration.configs[v]
        if src.state not in mstates and dst.state in mstates and dst.sigma is None:
            entries.append((src, label, dst))
    return entries
