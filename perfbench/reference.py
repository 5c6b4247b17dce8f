"""An independent transcription of the four rules, used only to check traces.

It shares no code with `mustipula.semantics`: a trace the package produced
is accepted only if every step is one this stepper also allows, reaching the
same (state, sigma, psi, clock).  Configurations are compared as plain
tuples, which the package's NamedTuple-based values equal.
"""

from __future__ import annotations


class CheckFailed(Exception):
    """A query's output failed its correctness check."""


def expect(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


class Stepper:
    """Successor relation of one contract, indexed once."""

    def __init__(self, contract, tickplus: bool):
        self.tickplus = tickplus
        self.functions: dict[str, list] = {}
        for fn in contract.functions:
            body = tuple(sorted((ev.time.offset, ev.line, ev.source, ev.target) for ev in fn.body))
            self.functions.setdefault(fn.source, []).append((fn.name, body, fn.target))
        self.event_sources = {ev.source for ev in contract.events()}

    def options(self, state, sigma, psi, clock):
        """Every enabled step as (label text, (state, sigma, psi, clock))."""
        if sigma is not None:
            events, target = sigma
            return [("statechange", (target, None, tuple(sorted(psi + tuple(events))), clock))]
        firable = {ev for ev in psi if ev[0] == 0 and ev[2] == state}
        if firable:
            out = []
            for ev in firable:
                rest = list(psi)
                rest.remove(ev)
                out.append((f"ev:{ev[1]}", (state, ((), ev[3]), tuple(rest), clock)))
            return out
        out = [
            (f"call:{name}", (state, (body, target), psi, clock))
            for name, body, target in self.functions.get(state, ())
        ]
        if not (self.tickplus and state in self.event_sources):
            ticked = tuple(sorted((d - 1, line, s, t) for d, line, s, t in psi if d > 0))
            out.append(("tick", (state, None, ticked, clock + 1)))
        return out


def as_tuple(cfg):
    sigma = None if cfg.sigma is None else (tuple(cfg.sigma.events), cfg.sigma.target)
    return (cfg.state, sigma, tuple(cfg.psi), cfg.clock)


def check_trace(contract, trace, tickplus: bool):
    """Replay `trace` from the initial configuration, step by step."""
    stepper = Stepper(contract, tickplus)
    current = (contract.init, None, (), 0)
    for i, step in enumerate(trace.steps):
        label = step.label.text()
        reached = as_tuple(step.config)
        expect(
            (label, reached) in stepper.options(*current),
            f"step {i} ({label}) is not a step of the reference semantics",
        )
        current = reached
    return current


def count_ticks(trace) -> int:
    return sum(1 for step in trace.steps if step.label.kind == "tick")
