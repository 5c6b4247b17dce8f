"""Shared test fixtures: golden contract sources, a seeded DI-contract
generator, configuration enumeration for exhaustive checks, the counter
machine suite, and denotation matchers for the encoding properties."""

from __future__ import annotations

import itertools
import random
from collections import Counter, deque

import mustipula as mu
from mustipula.semantics import EMPTY_PSI, Body, Configuration, PendingEvent, PendingSet
from mustipula.syntax import Contract, EventDecl, FunctionDecl, TimeExpr

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
    pred_basis produced along the way."""
    basis = [target]
    frontier = deque(basis)
    pairs = []
    while frontier:
        t = frontier.popleft()
        if any(mu.config_leq(b, t) for b in basis if b != t):
            continue
        for p in mu.pred_basis(contract, t):
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


def all_clause_targets(contract: Contract) -> list[Configuration]:
    targets = [mu.state_target(contract, q) for q in sorted(contract.states())]
    targets += [mu.event_target(contract, ev.line) for ev in contract.events()]
    return targets


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
