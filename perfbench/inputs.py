"""Seeded inputs the benchmark owns.

The generators live here, not in the test helpers, so that an edit to
`tests/helpers.py` cannot silently change a workload.  Every generator is a
pure function of the `random.Random` it is given.
"""

from __future__ import annotations

import dataclasses
import random

import mustipula as mu
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

# The six counter machines of the test suite.  Every state name starts with
# `Q`, and no other text does, so `machine_text` can rename them all.
SUITE_MACHINES = {
    "inc_dec_inc": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q2\nQ2: inc r2 QF\n",
    "trivial": "init Q0\nfinal Q0\n",
    "count_down": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q2\nQ2: decjump r1 QF Q1\n",
    "r2_zero_hop": "init Q0\nfinal QF\nQ0: inc r2 Q1\nQ1: decjump r2 Q0 Q3\nQ3: decjump r2 QF Q0\n",
    "r1_oscillator": "init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q0\n",
    "r2_cycle": "init Q0\nfinal QF\nQ0: inc r2 Q1\nQ1: decjump r2 Q0 Q0\n",
}


def inc_chain_text(n: int) -> str:
    """The machine `Qi: inc r1 Q{i+1}` for i < n, then `Qn: decjump r1 QF Qn`.
    It halts at QF after 2n+1 steps."""
    lines = ["init Q0", "final QF"]
    lines += [f"Q{i}: inc r1 Q{i + 1}" for i in range(n)]
    lines.append(f"Q{n}: decjump r1 QF Q{n}")
    return "\n".join(lines) + "\n"


def machine_text(text: str, prefix: str) -> str:
    """Rename every machine state `Q...` to `prefix...`.  Encodings of the
    renamed machine name their states and clauses after it too."""
    return text.replace("Q", prefix)


def state_prefix(rng: random.Random) -> str:
    """A seeded state-name prefix, so that each seed orders labels, and so
    the search, a little differently."""
    return "".join(rng.choice("ABCDEGHJKLMNPRSTUVWXYZ") for _ in range(2))


def renamed(contract: Contract, name: str) -> Contract:
    """The same contract under another name.  It compares unequal to the
    original, so caches keyed on the contract see it for the first time."""
    return dataclasses.replace(contract, name=name)


def random_di_contract(rng: random.Random, max_states: int, max_clauses: int, max_events: int) -> Contract:
    """A random determinate-instantaneous contract: function sources F*,
    event sources E* (disjoint by construction), all event delays zero.

    The same recipe, and the same draws from `rng`, as the test suite's
    generator, so corpora match the ones the roadmap measured."""
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


def relabel(contract: Contract, rng: random.Random, tag: str) -> tuple[Contract, list[int]]:
    """An isomorphic copy: states renamed by a random bijection, functions
    shuffled and renamed `h<k>_<tag>`, event line-codes renumbered.

    Returns the copy and `perm`, where function i of the copy is function
    `perm[i]` of the original; bodies keep their event order."""
    states = sorted(contract.states())
    names = [f"S{i}" for i in range(len(states))]
    rng.shuffle(names)
    new = dict(zip(states, names))
    perm = list(range(len(contract.functions)))
    rng.shuffle(perm)
    funcs = []
    for k, j in enumerate(perm):
        fn = contract.functions[j]
        body = tuple(
            EventDecl(ev.time, new[ev.source], new[ev.target], 0) for ev in fn.body
        )
        funcs.append(FunctionDecl(new[fn.source], f"h{k}_{tag}", body, new[fn.target]))
    copy = mu.renumber(Contract(f"G_{tag}", new[contract.init], tuple(funcs)))
    return copy, perm


def lively_contract(rng: random.Random, n_functions: int, n_states: int) -> Contract:
    """A large contract that never gets stuck: every state has a function,
    delays are mixed 0-3, and only the first quarter of the states are event
    sources, so tick-plus can still tick outside them."""
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
