"""The traced run: wrappers, installed from outside, that time the calls
into each layer of `mustipula`.

Each wrapper replaces a module attribute that one layer calls across, so a
call made through that attribute is timed wherever it comes from.  A call is
either a span (queries, set-up, and phase calls such as `explore`, `parse`
or `cli.main`), recorded with its parent, start and end, or a hot inner call
(`config_leq`, `successors`, `init_ev`, `classify`, `pred_basis`), folded
into count, total time and self time on its nearest enclosing span, so that
millions of calls do not each become a span.  Self time is a call's time
minus the time of the wrapped calls it made.  Everything stays in memory
until `write`.
"""

from __future__ import annotations

import contextlib
import copy
import json
import time

from mustipula import cli, fragments, minsky, reachability, semantics, syntax

ORIGINAL = "__perfbench_original__"


class _Frame:
    __slots__ = ("name", "child", "explored", "span")

    def __init__(self, name, span):
        self.name = name
        self.child = 0.0  # time spent in wrapped calls made from this one
        self.explored = 0.0  # the part of it spent in `explore`
        self.span = span  # nearest enclosing span record


def _on_explore(tracer, args, result, frame, dur):
    tracer.stack[-1].explored += dur
    configs = result[0].configs
    tracer.add("configs_visited", len(configs))
    tracer.add("configs_new", len(configs) - 1)
    tracer.peak("max_psi", max(len(cfg.psi) for cfg in configs))


def _on_successors(tracer, args, result, frame, dur):
    tracer.add("successors_out", len(result))
    if tracer.stack[-1].name == "reachability.explore":
        tracer.add("explore_generated", len(result))


def _on_pred_basis(tracer, args, result, frame, dur):
    tracer.add("preds_generated", len(result))


def _on_parse(tracer, args, result, frame, dur):
    tracer.add("parse_bytes", len(args[0]))


def _on_render(tracer, args, result, frame, dur):
    tracer.add("render_bytes", len(result))


def _on_bounded_reach(tracer, args, result, frame, dur):
    tracer.add("replay_s", dur - frame.explored)


# (module, attribute, name, is_span, hook).  `successors` is wrapped twice
# because `reachability` imported it by name.
TARGETS = [
    (cli, "main", "cli.main", True, None),
    (minsky, "encode", "minsky.encode", True, None),
    (syntax, "parse", "syntax.parse", True, _on_parse),
    (syntax, "render", "syntax.render", True, _on_render),
    (semantics, "run_random", "semantics.run_random", True, None),
    (reachability, "bounded_reach", "reachability.bounded_reach", True, _on_bounded_reach),
    (reachability, "unreachable_clauses", "reachability.unreachable_clauses", True, None),
    (reachability, "explore", "reachability.explore", True, _on_explore),
    (reachability, "decide_coverable", "reachability.decide_coverable", True, None),
    (reachability, "pred_basis", "reachability.pred_basis", False, _on_pred_basis),
    (reachability, "config_leq", "reachability.config_leq", False, None),
    (reachability, "successors", "semantics.successors", False, _on_successors),
    (semantics, "successors", "semantics.successors", False, _on_successors),
    (fragments, "classify", "fragments.classify", False, None),
    (fragments, "init_ev", "fragments.init_ev", False, None),
]


def installed() -> list[str]:
    """The wrapped attributes currently in place (empty when untraced)."""
    return [
        f"{module.__name__}.{attr}"
        for module, attr, *_ in TARGETS
        if hasattr(getattr(module, attr), ORIGINAL)
    ]


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counters: dict[str, float] = {}
        self.root = {"id": 0, "parent": None, "name": "run", "agg": {}}
        self.spans = [self.root]
        self.stack = [_Frame("run", self.root)]
        self._saved = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def install(self):
        for module, attr, name, is_span, hook in TARGETS:
            fn = getattr(module, attr)
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, is_span, hook))

    def uninstall(self):
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def _enter(self, name, is_span):
        span = self.stack[-1].span
        if is_span:
            span = {"id": len(self.spans), "parent": span["id"], "name": name, "agg": {}}
            self.spans.append(span)
        frame = _Frame(name, span)
        self.stack.append(frame)
        return frame

    def _exit(self, frame, start, end):
        self.stack.pop()
        dur = end - start
        self.stack[-1].child += dur
        stat = self.stats.setdefault(frame.name, [0, 0.0, 0.0])
        stat[0] += 1
        stat[1] += dur
        stat[2] += dur - frame.child
        frame.span.update(start=start, end=end, self=dur - frame.child)
        return dur

    def _wrap(self, name, fn, is_span, hook):
        if is_span:

            def wrapper(*args, **kwargs):
                frame = self._enter(name, True)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = self._exit(frame, start, time.perf_counter())
                if hook is not None:
                    hook(self, args, result, frame, dur)
                return result

        else:
            # The hot path: no span record, one aggregate on the parent span.
            stack, perf = self.stack, time.perf_counter
            stat = self.stats.setdefault(name, [0, 0.0, 0.0])

            def wrapper(*args, **kwargs):
                parent = stack[-1]
                frame = _Frame(name, parent.span)
                stack.append(frame)
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dur = perf() - start
                    stack.pop()
                parent.child += dur
                self_s = dur - frame.child
                stat[0] += 1
                stat[1] += dur
                stat[2] += self_s
                aggs = parent.span["agg"]
                agg = aggs.get(name)
                if agg is None:
                    agg = aggs[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += self_s
                if hook is not None:
                    hook(self, args, result, frame, dur)
                return result

        setattr(wrapper, ORIGINAL, fn)
        return wrapper

    @contextlib.contextmanager
    def span(self, name):
        """A span the benchmark itself opens, around a query or a set-up."""
        frame = self._enter(name, True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(frame, start, time.perf_counter())

    def snapshot(self):
        return copy.deepcopy(self.stats), dict(self.counters)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"stats": self.stats, "counters": self.counters, "spans": self.spans}, handle)


def layer_metrics(first, final, rounds: int) -> dict[str, float]:
    """Per-layer metrics from two snapshots: `first`, taken after the first
    traced round, gives the counts, which repeat exactly for one seed;
    `final` gives the times, as totals per round, and the rates and means,
    pooled over all `rounds` traced rounds.  A layer the workload never
    calls reads 0."""
    stats0, counters0 = first
    stats, counters = final

    def calls(name, of=stats0):
        return of.get(name, (0, 0.0, 0.0))[0]

    def total(name):
        return stats.get(name, (0, 0.0, 0.0))[1] / rounds

    def self_time(name):
        return stats.get(name, (0, 0.0, 0.0))[2] / rounds

    def ratio(num, den):
        return num / den if den else 0.0

    explore = "reachability.explore"
    succ = "semantics.successors"
    return {
        "syntax.parse_calls": calls("syntax.parse"),
        "syntax.parse_kb_per_s": ratio(counters.get("parse_bytes", 0) / 1e3, total("syntax.parse") * rounds),
        "syntax.render_kb_per_s": ratio(counters.get("render_bytes", 0) / 1e3, total("syntax.render") * rounds),
        "minsky.encode_calls": calls("minsky.encode"),
        "minsky.encode_self_s": self_time("minsky.encode"),
        "fragments.classify_calls": calls("fragments.classify"),
        "fragments.classify_s": total("fragments.classify"),
        "fragments.init_ev_calls": calls("fragments.init_ev"),
        "fragments.init_ev_s": total("fragments.init_ev"),
        "semantics.successors_calls": calls(succ),
        "semantics.successors_self_us": ratio(self_time(succ) * rounds * 1e6, calls(succ, stats)),
        "semantics.successors_fanout": ratio(counters.get("successors_out", 0), calls(succ, stats)),
        "reachability.explore_s": total(explore),
        "reachability.configs_visited": counters0.get("configs_visited", 0),
        "reachability.configs_per_s": ratio(counters.get("configs_visited", 0), total(explore) * rounds),
        "reachability.max_psi": counters0.get("max_psi", 0),
        "reachability.dedup_ratio": ratio(counters.get("configs_new", 0), counters.get("explore_generated", 0)),
        "reachability.replay_s": counters.get("replay_s", 0.0) / rounds,
        "reachability.decide_calls": calls("reachability.decide_coverable"),
        "reachability.decide_s": total("reachability.decide_coverable"),
        "reachability.pred_basis_calls": calls("reachability.pred_basis"),
        "reachability.pred_basis_self_s": self_time("reachability.pred_basis"),
        "reachability.preds_generated": counters0.get("preds_generated", 0),
        "reachability.config_leq_calls": calls("reachability.config_leq"),
        "reachability.config_leq_s": total("reachability.config_leq"),
        "cli.main_calls": calls("cli.main"),
        "cli.self_s": self_time("cli.main"),
    }
