"""A seeded differential fuzz of the forward search.

It draws random I, TA and D contracts, with delays up to 300 and psi caps
that include 252-254, where `StepTable.for_search` stops packing psi into
one int, and searches each in both modes with `explore` and with
`helpers.reference_explore`.  The two must agree on every configuration
(each packed key decoded afresh, and its clock), on the BFS tree, on
`complete` and on `limit_hit`.  Witness paths must equal
`helpers.reference_path`: every node's, in shuffled order, on searches of
at most `ALL_PATHS` nodes, with `configs` built first on every other
contract, and five sampled nodes' on larger ones; and `configs[n]` must
be `config(n)`.  The script needs only the standard library and the
package, and pytest does not collect it.

    python tests/fuzz_forward.py 200            # 200 contracts, seed 0
    python tests/fuzz_forward.py 200 --seed 7

It exits 1 on the first mismatch, printing the contract and the search.
"""

from __future__ import annotations

import argparse
import random
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import mustipula as mu  # noqa: E402
from helpers import decode, links, reference_explore, reference_path  # noqa: E402

PSI_CAPS = (1, 2, 3, 4, 6, 12, 252, 253, 254)
ALL_PATHS = 300  # searches up to this many nodes compare every path


def _delay(rng: random.Random, fragment: str) -> int:
    if fragment == "i":
        return 0
    low = 1 if fragment == "ta" else 0
    return rng.randint(low, 3) if rng.random() < 0.8 else rng.randint(low, 300)


def random_contract(rng: random.Random, fragment: str) -> mu.Contract:
    """A contract of the I, TA or D fragment: all delays 0, all positive,
    or mixed with the functions' and events' source states disjoint."""
    states = [f"Q{i}" for i in range(rng.randint(2, 5))]
    # In D, events wait at states that no function leaves.
    sources = states[: max(1, len(states) // 2)] if fragment == "d" else states
    waits = states[len(sources):] if fragment == "d" else states
    lines = [f"stipula R {{\n  init {states[0]}"]
    for i in range(rng.randint(2, 6)):
        # The first function leaves the initial state, so no search is empty.
        lines.append(f"  @{rng.choice(sources) if i else states[0]} f{i} {{")
        for _ in range(rng.randint(0, 3)):
            lines.append(f"    now + {_delay(rng, fragment)} >> @{rng.choice(waits)} => @{rng.choice(states)}")
        lines.append(f"  }} => @{rng.choice(states)}")
    return mu.parse("\n".join(lines) + "\n}\n")


def mismatch(exploration, configs, parents, complete, limit_hit, configs_first: bool) -> str | None:
    """What differs between the search and the reference's, or None;
    `configs_first` builds `exploration.configs` before any path."""
    table = exploration.table
    if [decode(table, key) for key in exploration.packed] != [(c.state, c.sigma, c.psi) for c in configs]:
        return "configurations"
    if exploration.clocks != [c.clock for c in configs]:
        return "clocks"
    if links(exploration) != parents:
        return "parents"
    if (exploration.complete, exploration.limit_hit) != (complete, limit_hit):
        return f"complete/limit_hit {exploration.complete, exploration.limit_hit} != {complete, limit_hit}"
    rng, nodes = random.Random(len(configs)), list(range(len(configs)))
    if len(nodes) > ALL_PATHS:
        nodes = rng.sample(nodes, 5)
    else:
        rng.shuffle(nodes)
        if configs_first:
            exploration.configs
    for node in nodes:
        if exploration.path(node) != reference_path(configs, parents, node):
            return f"path to node {node}"
    if any(cfg is not exploration.config(node) for node, cfg in enumerate(exploration.configs)):
        return "configs and config"
    return None


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("count", type=int, help="contracts to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    seen = Counter()
    for n in range(args.count):
        fragment = "i ta d".split()[n % 3]
        contract = random_contract(rng, fragment)
        limits = mu.ExplorationLimits(rng.choice((50, 400)), rng.choice((1, 3, 40)), rng.choice(PSI_CAPS))
        for mode in mu.Mode:
            exploration, _ = mu.explore(contract, mode, limits)
            wrong = mismatch(exploration, *reference_explore(contract, mode, limits), configs_first=n % 2 == 1)
            if wrong is not None:
                print(f"MISMATCH in {wrong}: contract {n}, {mode}, {limits}\n{mu.render(contract)}")
                return 1
            seen[fragment, type(exploration.table).__name__] += 1
    print(f"{args.count} contracts, both modes, seed {args.seed}: explore agrees with the reference")
    print("  searches per fragment and table: " + ", ".join(f"{fragment} {kind}: {count}" for (fragment, kind), count in sorted(seen.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
