"""The four workloads.

A workload builds its inputs in `setup`, then hands out rounds of queries
with `round(index, tag)`.  The runner may call `setup` again; every call
builds the same inputs.  Every round has the same shape; its
contracts are fresh objects under names no earlier round used, so each
timed query sees its contract for the first time in the process, as a CLI
user does, and `lru_cache`s keyed on contract equality start cold.  Rounds
with equal `index` and different `tag` do identical work, which is how the
traced run measures its own overhead.  `check` judges one query's output
outside the timed pass, from something other than the code path timed.

Queries call the package through module attributes at call time, so the
traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import re
import tracemalloc
from typing import Callable, NamedTuple

import mustipula as mu
from mustipula import cli, minsky, reachability, semantics
from mustipula.semantics import Mode
from mustipula.syntax import ClauseId

import inputs
from reference import as_tuple, check_trace, count_ticks, expect


UNTRACED_METRICS = (
    "semantics.steps_per_s_tick",
    "semantics.steps_per_s_tickplus",
    "semantics.tickplus_step_ratio",
    "reachability.bytes_per_config",
)


class Query(NamedTuple):
    kind: str  # what the check and the per-layer figures key on
    run: Callable[[], object]  # the timed call
    data: object  # what the check needs


class Workload:
    name = ""
    why = ""

    def __init__(self, seed: int, tiny: bool, workdir: str):
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir

    def rng(self, *parts) -> random.Random:
        return random.Random(":".join(str(p) for p in (self.name, self.seed, *parts)))

    def setup(self):
        raise NotImplementedError

    def round(self, index: int, tag: str) -> list[Query]:
        raise NotImplementedError

    def check(self, query: Query, output):
        raise NotImplementedError

    def notes(self) -> list[str]:
        """Lines for the human-readable report."""
        return []

    def layer_metrics(self, records) -> dict[str, float]:
        """Per-layer figures measured without wrappers, from the untraced
        twin rounds of a traced run: (query, output, seconds) triples.  A
        workload that does not exercise one reads 0."""
        return dict.fromkeys(UNTRACED_METRICS, 0.0)


def _witness_end(contract, trace):
    """The configuration a witness replays to, and the one before its last
    step, both as reference-stepper tuples."""
    end = check_trace(contract, trace, tickplus=False)
    if len(trace.steps) >= 2:
        before = as_tuple(trace.steps[-2].config)
    else:
        before = (contract.init, None, (), 0)
    return before, end


class ForwardReach(Workload):
    name = "forward_reach"
    why = (
        "bounded_reach on Minsky encodings: explore, successors and the pending "
        "multisets do the work; syntax and fragments almost none"
    )

    LADDER = {"i": range(1, 11), "ta": range(1, 13), "d": range(1, 11)}
    FALLBACK = (3, 6)
    # (fragment, n, max_configs): caps below the configurations the search
    # needs to reach the final state (29k, 17k and 15k at the seed commit).
    CAPPED = (("i", 10, 10_000), ("ta", 12, 6_000), ("d", 10, 5_000))
    TINY_LADDER = {"i": (1, 2, 3), "ta": (1, 2, 3), "d": (1, 2, 3)}
    TINY_FALLBACK = (2,)
    TINY_CAPPED = (("i", 3, 40),)
    FUEL = 10_000
    MEMORY_PROBE = ("i", 10)  # bytes per configuration are measured here
    TINY_MEMORY_PROBE = ("i", 3)

    def setup(self):
        prefix = inputs.state_prefix(self.rng())
        ladder = self.TINY_LADDER if self.tiny else self.LADDER
        machines = {}
        for fragment, sizes in ladder.items():
            for n in sizes:
                machines.setdefault(f"chain{n}", inputs.inc_chain_text(n))
        for name, text in inputs.SUITE_MACHINES.items():
            machines[name] = text
        self.machines = {
            name: minsky.parse_minsky(inputs.machine_text(text, prefix))
            for name, text in machines.items()
        }
        self.encoded = {}

        def encoding(machine_name, fragment):
            key = (machine_name, fragment)
            if key not in self.encoded:
                self.encoded[key] = minsky.encode(self.machines[machine_name], fragment)
            return key

        self.specs = []  # (kind, encoding key, max_configs)
        for fragment, sizes in ladder.items():
            for n in sizes:
                self.specs.append(("reach", encoding(f"chain{n}", fragment), None))
        for name in inputs.SUITE_MACHINES:
            for fragment in ("i", "ta", "d"):
                self.specs.append(("reach", encoding(name, fragment), None))
        for n in self.TINY_FALLBACK if self.tiny else self.FALLBACK:
            for fragment in ("i", "ta", "d"):
                self.specs.append(("fallback", encoding(f"chain{n}", fragment), None))
        for fragment, n, cap in self.TINY_CAPPED if self.tiny else self.CAPPED:
            self.specs.append(("capped", encoding(f"chain{n}", fragment), cap))
        fragment, n = self.TINY_MEMORY_PROBE if self.tiny else self.MEMORY_PROBE
        self.probe = encoding(f"chain{n}", fragment)

    def round(self, index, tag):
        queries = []
        for k, (kind, key, cap) in enumerate(self.specs):
            base = self.encoded[key]
            contract = inputs.renamed(base, f"{base.name}_{tag}{index}n{k}")
            final = self.machines[key[0]].final
            if kind == "fallback":
                run = lambda c=contract: reachability.unreachable_clauses(c)
            elif kind == "capped":
                limits = reachability.ExplorationLimits(max_configs=cap)
                run = lambda c=contract, q=final, lim=limits: reachability.bounded_reach(c, q, lim)
            else:
                run = lambda c=contract, q=final: reachability.bounded_reach(c, q)
            queries.append(Query(kind, run, (contract, key[0])))
        return queries

    def check(self, query, output):
        contract, machine_name = query.data
        machine = self.machines[machine_name]
        if query.kind == "capped":
            expect(
                output.status == "unknown" and output.detail == "configs",
                f"capped search gave {output.status}/{output.detail}",
            )
        elif query.kind == "reach":
            halts = isinstance(minsky.minsky_run(machine, self.FUEL), minsky.Halted)
            expect(
                (output.status == "reachable") == halts,
                f"{contract.name}: {output.status}, but the machine halts: {halts}",
            )
            if halts:
                _, (state, sigma, _, _) = _witness_end(contract, output.witness)
                expect(state == machine.final and sigma is None, "witness ends off the final state")
        else:
            self._check_fallback(contract, output)

    @staticmethod
    def _check_fallback(contract, verdicts):
        clauses = {ClauseId.of_function(fn) for fn in contract.functions}
        clauses |= {ClauseId.of_event(ev) for ev in contract.events()}
        expect(set(verdicts) == clauses, "verdicts do not cover exactly the clauses")
        for clause, verdict in verdicts.items():
            expect(verdict.status in ("reachable", "unknown"), f"forward search said {verdict.status}")
            if verdict.status != "reachable":
                continue
            (state, _, _, _), (_, sigma, _, _) = _witness_end(contract, verdict.witness)
            last = verdict.witness.steps[-1].label.text()
            if clause.kind == "function":
                fires = last == f"call:{clause.label}" and sigma[1] == clause.target
            else:
                fires = last == "ev:" + clause.label[len("ev_"):] and sigma[1] == clause.target
            expect(fires and state == clause.source, f"witness does not end firing {clause.text()}")

    def layer_metrics(self, records):
        base = self.encoded[self.probe]
        contract = inputs.renamed(base, f"{base.name}_probe")
        tracemalloc.start()
        try:
            exploration, _ = reachability.explore(
                contract, target_state=self.machines[self.probe[0]].final
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = super().layer_metrics(records)
        out["reachability.bytes_per_config"] = peak / len(exploration.configs)
        return out


class BackwardDI(Workload):
    name = "backward_di"
    why = (
        "unreachable_clauses on 200 generated DI contracts: pred_basis, config_leq "
        "and the classify/init_ev lookups do the work; the forward engine is idle"
    )

    # The corpus structure is drawn once, with the roadmap's seed, so that
    # every run carries the same heavy contracts: independently drawn corpora
    # differ by 25-30% in total time even at 600 contracts, wider than any
    # bound could hold.  The run seed relabels states, shuffles and renames
    # functions and orders the queries, so each seed's inputs differ.
    CORPUS_SEED = 7
    SIZE = 200
    SHAPE = {"max_states": 8, "max_clauses": 16, "max_events": 8}
    TINY_SIZE = 12
    TINY_SHAPE = {"max_states": 3, "max_clauses": 4, "max_events": 3}
    TRUTH_LIMITS = reachability.ExplorationLimits(30_000, 200, 8)

    def __init__(self, seed, tiny, workdir):
        super().__init__(seed, tiny, workdir)
        # Corpus index -> forward answer.  It outlives a set-up, which
        # rebuilds the same corpus.
        self.truth = {}

    def setup(self):
        corpus_rng = random.Random(self.CORPUS_SEED)
        size, shape = (self.TINY_SIZE, self.TINY_SHAPE) if self.tiny else (self.SIZE, self.SHAPE)
        self.corpus = [inputs.random_di_contract(corpus_rng, **shape) for _ in range(size)]

    def round(self, index, tag):
        rng = self.rng(index)
        order = list(range(len(self.corpus)))
        rng.shuffle(order)
        queries = []
        for j in order:
            contract, perm = inputs.relabel(self.corpus[j], rng, f"{tag}{index}x{j}")
            run = lambda c=contract: reachability.unreachable_clauses(c)
            queries.append(Query("unreachable", run, (j, contract, perm)))
        return queries

    def _truth_of(self, j):
        """Clause reachability by exhaustive tick-plus forward search on the
        original contract: per function, then per function and body position
        for events.  `complete` is False when a limit stopped the search;
        only the clauses it did reach are known then."""
        if j not in self.truth:
            base = self.corpus[j]
            exploration, _ = reachability.explore(base, Mode.TICK_PLUS, self.TRUTH_LIMITS)
            states, fired = set(), set()
            for cfg in exploration.configs:
                if cfg.sigma is None:
                    states.add(cfg.state)
                    fired.update(ev.line for ev in cfg.psi if ev.delay == 0 and ev.source == cfg.state)
            functions = [fn.source in states for fn in base.functions]
            events = [[ev.line in fired for ev in fn.body] for fn in base.functions]
            self.truth[j] = (exploration.complete, functions, events)
        return self.truth[j]

    def check(self, query, output):
        j, contract, perm = query.data
        complete, functions, events = self._truth_of(j)
        expect(
            len(output) == len(contract.functions) + sum(1 for _ in contract.events()),
            "verdicts do not cover the clauses",
        )
        for i, fn in enumerate(contract.functions):
            pairs = [(ClauseId.of_function(fn), functions[perm[i]])]
            pairs += [
                (ClauseId.of_event(ev), events[perm[i]][k]) for k, ev in enumerate(fn.body)
            ]
            for clause, reachable in pairs:
                status = output[clause].status
                expect(status in ("reachable", "unreachable"), f"{clause.text()}: {status}")
                if complete or reachable:
                    expect(
                        (status == "reachable") == reachable,
                        f"{clause.text()}: {status}, forward search says reachable={reachable}",
                    )

    def notes(self):
        limits = self.TRUTH_LIMITS
        unchecked = sum(1 for complete, _, _ in self.truth.values() if not complete)
        return [
            f"{unchecked} of {len(self.truth)} contracts left unchecked: their tick-plus "
            f"forward search hit a limit (max_configs {limits.max_configs}, max_clock "
            f"{limits.max_clock}, max_psi {limits.max_psi}); only the clauses it reached "
            "were checked"
        ]


class Simulate(Workload):
    name = "simulate"
    why = (
        "run_random on PingPong and a 1,000-function contract in tick and tick-plus: "
        "long paths, per-step scans of all functions and the init_ev lookup"
    )

    # (contract, mode, steps); each appears PER_KIND times in a round.
    KINDS = (("pingpong", Mode.TICK, 4000), ("lively", Mode.TICK, 800), ("lively", Mode.TICK_PLUS, 250))
    TINY_KINDS = (("pingpong", Mode.TICK, 200), ("lively", Mode.TICK, 100), ("lively", Mode.TICK_PLUS, 30))
    PER_KIND = 20
    TINY_PER_KIND = 4
    LIVELY = {"n_functions": 1000, "n_states": 250}
    TINY_LIVELY = {"n_functions": 40, "n_states": 10}
    # The lively contract is drawn once, with a fixed seed: contracts drawn
    # per run seed differ by up to 40 % in tick-plus step cost.  The run
    # seed sets the run_random seeds and the order of the queries.
    LIVELY_SEED = 11

    def setup(self):
        self.contracts = {
            "pingpong": mu.parse(inputs.PINGPONG),
            "lively": inputs.lively_contract(
                random.Random(self.LIVELY_SEED), **(self.TINY_LIVELY if self.tiny else self.LIVELY)
            ),
        }

    def round(self, index, tag):
        rng = self.rng(index)
        queries = []
        for name, mode, steps in self.TINY_KINDS if self.tiny else self.KINDS:
            for k in range(self.TINY_PER_KIND if self.tiny else self.PER_KIND):
                contract = inputs.renamed(self.contracts[name], f"{name}_{mode.value}_{tag}{index}n{k}")
                seed = rng.randrange(2**31)
                run = lambda c=contract, s=seed, n=steps, m=mode: semantics.run_random(c, n, s, m)
                # Determinism is checked on the first query of each kind: a
                # repeat costs as much as the query.
                data = (contract, steps, seed, mode, k == 0)
                queries.append(Query(f"{name}_{mode.value}", run, data))
        rng.shuffle(queries)
        return queries

    def check(self, query, output):
        contract, steps, seed, mode, repeat = query.data
        expect(len(output) == steps, f"run stopped after {len(output)} of {steps} steps")
        _, _, _, clock = check_trace(contract, output, tickplus=mode is Mode.TICK_PLUS)
        expect(clock == count_ticks(output), "clock differs from the number of ticks")
        if repeat:
            expect(semantics.run_random(contract, steps, seed, mode) == output, "a repeated call differs")

    def layer_metrics(self, records):
        steps = {"lively_tick": 0, "lively_tickplus": 0}
        seconds = {"lively_tick": 0.0, "lively_tickplus": 0.0}
        for query, output, elapsed in records:
            if query.kind in steps:
                steps[query.kind] += len(output)
                seconds[query.kind] += elapsed
        tick = steps["lively_tick"] / seconds["lively_tick"]
        tickplus = steps["lively_tickplus"] / seconds["lively_tickplus"]
        out = super().layer_metrics(records)
        out.update({
            "semantics.steps_per_s_tick": tick,
            "semantics.steps_per_s_tickplus": tickplus,
            "semantics.tickplus_step_ratio": tick / tickplus,
        })
        return out


FUNCTION_LINE = re.compile(r"^  @\S+ \S+ \{", re.MULTILINE)
FRAGMENT_FLAG = {"i": "I", "ta": "TA", "d": "D"}


def encoded_functions(fragment: str, n: int) -> int:
    """Function count of each encoder's output on inc_chain(n), worked out by
    hand from the encoders' definitions."""
    return {"i": n + 5, "ta": 3 * n + 11, "d": 4 * n + 13}[fragment]


class Frontend(Workload):
    name = "frontend"
    why = (
        "in-process CLI encode-minsky, parse, parse --json and classify on encodings up "
        "to 1,613 functions: syntax, minsky and cli work; no reachability"
    )

    SIZES = (25, 50, 100, 200, 400)
    TINY_SIZES = (2, 4)
    FRAGMENTS = ("i", "ta", "d")

    def setup(self):
        self.machines = {n: inputs.inc_chain_text(n) for n in (self.TINY_SIZES if self.tiny else self.SIZES)}
        self.encodings = {
            (n, f): mu.render(minsky.encode(minsky.parse_minsky(text), f))
            for n, text in self.machines.items()
            for f in self.FRAGMENTS
        }

    def round(self, index, tag):
        rng = self.rng(index)
        prefix = f"{inputs.state_prefix(rng)}{tag}{index}_"
        queries = []
        for n, text in self.machines.items():
            machine_path = os.path.join(self.workdir, f"{tag}{n}.minsky")
            with open(machine_path, "w", encoding="utf-8") as handle:
                handle.write(inputs.machine_text(text, prefix))
            for f in self.FRAGMENTS:
                # A header unlike the encoder's output keeps `classify` on
                # this file from hitting a cache that `encode-minsky` filled.
                _, body = inputs.machine_text(self.encodings[n, f], prefix).split("\n", 1)
                source = f"stipula File_{prefix}{f}{n} {{\n" + body
                path = os.path.join(self.workdir, f"{tag}{f}{n}.stipula")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(source)
                for kind, argv in (
                    ("encode-minsky", ["encode-minsky", machine_path, "--fragment", f, "-o", "-"]),
                    ("parse", ["parse", path]),
                    ("parse --json", ["parse", "--json", path]),
                    ("classify", ["classify", path]),
                ):
                    queries.append(Query(kind, lambda a=argv: _cli(a), (n, f, source)))
        return queries

    def check(self, query, output):
        n, f, source = query.data
        code, out = output
        expect(code == 0, f"exit code {code}")
        want = encoded_functions(f, n)
        if query.kind == "encode-minsky":
            expect(out.startswith(f"stipula {FRAGMENT_FLAG[f]}_"), "encoder output has the wrong name")
            expect(len(FUNCTION_LINE.findall(out)) == want, "encoder output has the wrong function count")
        elif query.kind == "parse":
            expect(out == source, "render(parse(text)) differs from text")
        elif query.kind == "parse --json":
            payload = json.loads(out)
            expect(len(payload["functions"]) == want, "JSON has the wrong function count")
        else:
            flags = out.splitlines()[0].split()[1:]
            expect(FRAGMENT_FLAG[f] in flags, f"fragments {flags} lack {FRAGMENT_FLAG[f]}")


def _cli(argv):
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.main(argv)
    return code, buffer.getvalue()


WORKLOADS = {w.name: w for w in (ForwardReach, BackwardDI, Simulate, Frontend)}
