"""Two-counter machines and their contract encodings.

A machine has states, a program mapping states to instructions, an initial
state, and a final state with no instruction.  Instructions either increment
a register and jump, or test-and-decrement: on zero jump one way, otherwise
decrement and jump the other way.  Machine execution is deterministic.

Three encoders compile a machine into a contract, one per fragment:

* `encode_i`   - all event delays 0.  Register values are multiplicities of
  pending `_dec_i => _ackdec_i` events; a travelling `_a_Q => _b_Q` token pair
  anchors the current machine state.  Simulation never ticks; a stray tick
  erases the anchor and strands the run.
* `encode_ta`  - all delays positive.  Register units live one tick ahead;
  decrement rounds shuttle them forward two ticks through a transfer
  protocol, with erroneous `=> _end` events trapping mistimed runs.
* `encode_d`   - function and event sources disjoint.  Register-1 units sit
  one tick ahead and register-2 units three ticks ahead; sibling A/B
  function pairs alternate on a `_notickA/_notickB` management token so a
  stray tick (which erases the token) halts the simulation.

Auxiliary states are prefixed with `_`, which is reserved: machine state
names may not start with it.  Each encoder lists its functions as plain
specs and `syntax.lay_out` builds every declaration once, with the line-code
`render` gives it, so an encoding is never rendered and reparsed to learn
them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

from . import fragments
from .errors import (
    DanglingStateError,
    FinalHasInstructionError,
    MinskySyntaxError,
)
from .semantics import PendingEvent, PendingSet
from .syntax import IDENTIFIER, Contract, StateName, lay_out

AUX_PREFIX = "_"


@dataclass(frozen=True)
class Inc:
    """Increment `register` and go to `next`."""

    register: int
    next: StateName

    def __post_init__(self):
        if self.register not in (1, 2):
            raise MinskySyntaxError("registers are r1 and r2")

    def targets(self) -> tuple[StateName, ...]:
        return (self.next,)


@dataclass(frozen=True)
class DecJump:
    """If `register` is zero go to `on_zero`, else decrement and go to
    `on_pos`."""

    register: int
    on_zero: StateName
    on_pos: StateName

    def __post_init__(self):
        if self.register not in (1, 2):
            raise MinskySyntaxError("registers are r1 and r2")

    def targets(self) -> tuple[StateName, ...]:
        return (self.on_zero, self.on_pos)


Instruction = Inc | DecJump


@dataclass
class MinskyMachine:
    """A two-counter machine.  The final state carries no instruction, and
    every jump target either has an instruction or is the final state."""

    init: StateName
    final: StateName
    program: dict[StateName, Instruction]

    @property
    def states(self) -> frozenset[StateName]:
        out = {self.init, self.final}
        for state, instr in self.program.items():
            out.add(state)
            out.update(instr.targets())
        return frozenset(out)

    def validate(self) -> "MinskyMachine":
        for state in self.states:
            if state.startswith(AUX_PREFIX):
                raise MinskySyntaxError(
                    f"state name {state!r} starts with {AUX_PREFIX!r}, "
                    "which is reserved for encoder auxiliaries"
                )
        if self.final in self.program:
            raise FinalHasInstructionError(
                f"final state {self.final} has an instruction"
            )
        for state, instr in self.program.items():
            for target in instr.targets():
                if target != self.final and target not in self.program:
                    raise DanglingStateError(
                        f"instruction at {state} jumps to {target}, "
                        "which has no instruction and is not final"
                    )
        return self


class MachineConfig(NamedTuple):
    state: StateName
    r1: int
    r2: int


@dataclass(frozen=True)
class Halted:
    r1: int
    r2: int
    steps: int


@dataclass(frozen=True)
class OutOfFuel:
    pass


def parse_minsky(text: str) -> MinskyMachine:
    """Parse the line-based machine format:

        init <STATE>
        final <STATE>
        <STATE>: inc r1|r2 <STATE>
        <STATE>: decjump r1|r2 <STATE_zero> <STATE_pos>

    Blank lines and `#` comments are ignored.
    """
    init = final = None
    program: dict[StateName, Instruction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "init" and len(parts) == 2 and init is None:
            init = parts[1]
            continue
        if parts[0] == "final" and len(parts) == 2 and final is None:
            final = parts[1]
            continue
        if not parts[0].endswith(":"):
            raise MinskySyntaxError(f"line {lineno}: cannot parse {line!r}")
        state = parts[0][:-1]
        if state in program:
            raise MinskySyntaxError(f"line {lineno}: duplicate instruction for {state}")
        if len(parts) == 4 and parts[1] == "inc" and parts[2] in ("r1", "r2"):
            program[state] = Inc(int(parts[2][1]), parts[3])
        elif len(parts) == 5 and parts[1] == "decjump" and parts[2] in ("r1", "r2"):
            program[state] = DecJump(int(parts[2][1]), parts[3], parts[4])
        else:
            raise MinskySyntaxError(f"line {lineno}: cannot parse {line!r}")
    if init is None or final is None:
        raise MinskySyntaxError("machine needs one 'init' and one 'final' line")
    return MinskyMachine(init, final, program).validate()


def minsky_step(machine: MinskyMachine, cfg: MachineConfig) -> MachineConfig | None:
    """The unique successor configuration, or None when halted (at the
    final state or any state without an instruction)."""
    instr = machine.program.get(cfg.state)
    if instr is None:
        return None
    if isinstance(instr, Inc):
        if instr.register == 1:
            return MachineConfig(instr.next, cfg.r1 + 1, cfg.r2)
        return MachineConfig(instr.next, cfg.r1, cfg.r2 + 1)
    value = cfg.r1 if instr.register == 1 else cfg.r2
    if value == 0:
        return MachineConfig(instr.on_zero, cfg.r1, cfg.r2)
    if instr.register == 1:
        return MachineConfig(instr.on_pos, cfg.r1 - 1, cfg.r2)
    return MachineConfig(instr.on_pos, cfg.r1, cfg.r2 - 1)


def run_trajectory(machine: MinskyMachine, fuel: int) -> list[MachineConfig]:
    """Configurations visited from (init, 0, 0), at most `fuel` steps."""
    cfg = MachineConfig(machine.init, 0, 0)
    out = [cfg]
    for _ in range(fuel):
        nxt = minsky_step(machine, cfg)
        if nxt is None:
            break
        cfg = nxt
        out.append(cfg)
    return out


def minsky_run(machine: MinskyMachine, fuel: int) -> Halted | OutOfFuel:
    """Run from (init, 0, 0) for at most `fuel` steps, in constant memory."""
    cfg = MachineConfig(machine.init, 0, 0)
    for steps in range(fuel + 1):
        nxt = minsky_step(machine, cfg)
        if nxt is None:
            return Halted(cfg.r1, cfg.r2, steps)
        cfg = nxt
    return OutOfFuel()


# ---------------------------------------------------------------------------
# Register denotations
# ---------------------------------------------------------------------------


def _aux(name: str) -> StateName:
    return AUX_PREFIX + name


def denote_registers(fragment: str, v1: int, v2: int, anchor: str) -> PendingSet:
    """The pending multiset encoding register contents (v1, v2) in each
    fragment's simulation.  The anchor is the current machine state for the
    instantaneous and time-ahead encodings, and the sibling flag "A" or "B"
    for the determinate one.  Line-codes are 0: denotations name event
    shapes, not declaration sites.
    """
    if fragment == "i":
        events = [PendingEvent(0, 0, _aux("dec1"), _aux("ackdec1"))] * v1
        events += [PendingEvent(0, 0, _aux("dec2"), _aux("ackdec2"))] * v2
        events.append(PendingEvent(0, 0, _aux(f"a_{anchor}"), _aux(f"b_{anchor}")))
    elif fragment == "ta":
        events = [PendingEvent(1, 0, _aux("dec1"), _aux("ackdec1"))] * v1
        events += [PendingEvent(1, 0, _aux("dec2"), _aux("ackdec2"))] * v2
        events.append(PendingEvent(1, 0, anchor, _aux("end")))
    elif fragment == "d":
        if anchor not in ("A", "B"):
            raise ValueError("the determinate denotation is anchored at 'A' or 'B'")
        events = [PendingEvent(1, 0, _aux("dec1"), _aux("ackdec1"))] * v1
        events += [PendingEvent(3, 0, _aux("dec2"), _aux("ackdec2"))] * v2
        events.append(PendingEvent(0, 0, _aux(f"notick{anchor}"), _aux("cont")))
    else:
        raise ValueError(f"unknown fragment {fragment!r}")
    return PendingSet(events)


# ---------------------------------------------------------------------------
# Encoders
# ---------------------------------------------------------------------------


def _instructions(machine: MinskyMachine):
    return sorted(machine.program.items())


def _check_encodable(machine: MinskyMachine) -> None:
    """Validate `machine`; each state name must also be a contract identifier."""
    machine.validate()
    for state in sorted(machine.states):
        if not IDENTIFIER.fullmatch(state):
            raise MinskySyntaxError(f"state name {state!r} is not an identifier")


# Each encoder lists its functions as `syntax.lay_out` specs, in the order of
# the rendered clause `@source name { events } => @target`: a function is
# `(source, name, events, target)` and an event `now + offset >> @source =>
# @target` is `(offset, source, target)`.  The result needs no `validate`:
# `lay_out` gives each event its own line-code, and distinct machine states
# give distinct function names.


def encode_i(machine: MinskyMachine) -> Contract:
    """Compile into the instantaneous fragment (all delays 0).

    `fstart` plants the state-anchor token pair for the initial state.  An
    increment at Q adds one register token, consumes the Q anchor through
    `_a_Q`/`_b_Q`, and plants the successor's anchor.  A decrement guess
    routes through `_dec_r`, where a register token must fire before the
    acknowledge event advances the anchor; a zero guess instead needs the
    `fdec_r` management hop to `_zero_r`, which the presence of any register
    token preempts.
    """
    _check_encodable(machine)
    a = lambda q: _aux(f"a_{q}")
    b = lambda q: _aux(f"b_{q}")
    funcs = [(_aux("start"), "fstart", [(0, a(machine.init), b(machine.init))], machine.init)]
    for state, instr in _instructions(machine):
        r = instr.register
        if isinstance(instr, Inc):
            funcs.append((state, f"finc_{state}", [
                (0, _aux(f"dec{r}"), _aux(f"ackdec{r}")),
                (0, b(state), instr.next),
                (0, a(instr.next), b(instr.next)),
            ], a(state)))
            continue
        funcs.append((state, f"fdec_{state}", [
            (0, _aux(f"ackdec{r}"), a(state)),
            (0, b(state), instr.on_pos),
            (0, a(instr.on_pos), b(instr.on_pos)),
        ], _aux(f"dec{r}")))
        funcs.append((state, f"fzero_{state}", [
            (0, _aux(f"zero{r}"), a(state)),
            (0, b(state), instr.on_zero),
            (0, a(instr.on_zero), b(instr.on_zero)),
        ], _aux(f"dec{r}")))
    funcs.append((_aux("dec1"), "fdec1", [], _aux("zero1")))
    funcs.append((_aux("dec2"), "fdec2", [], _aux("zero2")))
    contract = lay_out(f"I_{machine.init}", _aux("start"), funcs)
    assert fragments.classify(contract).instantaneous
    return contract


def encode_ta(machine: MinskyMachine) -> Contract:
    """Compile into the time-ahead fragment (all delays positive).

    Register units are `now+1 >> _dec_i => _ackdec_i` events.  A decrement
    round parks the contract in `_wait`, ticks once, then ferries every
    register token two ticks ahead through `_dec_1`/`_ackdec_1` and
    `_dec_2`/`_ackdec_2` (skipping exactly one when decrementing).  The
    `=> _end` events at delays 2 and 3 catch runs that dawdle in a
    management or machine state across the wrong tick.
    """
    _check_encodable(machine)
    end, wait = _aux("end"), _aux("wait")
    funcs = []
    for state, instr in _instructions(machine):
        r = instr.register
        if isinstance(instr, Inc):
            funcs.append((state, f"finc_{state}", [
                (1, _aux(f"dec{r}"), _aux(f"ackdec{r}")),
                (1, instr.next, end),
            ], instr.next))
            continue
        pos, zero = instr.on_pos, instr.on_zero
        funcs.append((state, f"fdec_{state}", [
            (1, _aux(f"ackdec{r}"), _aux(f"next{r}_{pos}")),
            (1, wait, _aux("dec1")),
            (2, _aux("dec1"), end),
            (2, _aux("dec2"), end),
            (2, _aux(f"next{r}_{pos}"), end),
            (2, _aux("ackdec1"), end),
            (2, _aux("ackdec2"), end),
            (3, pos, end),
        ], wait))
        funcs.append((state, f"fzero_{state}", [
            (1, _aux(f"ackdec{r}"), end),
            (2, _aux("next"), zero),
            (1, wait, _aux("dec1")),
            (3, zero, end),
        ], wait))
    funcs.append((wait, "fwait", [], end))
    funcs.append((_aux("dec1"), "fdec1", [], _aux("dec2")))
    funcs.append((_aux("dec2"), "fdec2", [], _aux("next")))
    for i in (1, 2):
        dec_i, ackdec_i = _aux(f"dec{i}"), _aux(f"ackdec{i}")
        funcs.append((ackdec_i, f"fackdec{i}", [(2, dec_i, ackdec_i)], dec_i))
    for state, i in itertools.product(sorted(machine.states), (1, 2)):
        body = [(1, _aux("next"), state)]
        funcs.append((_aux(f"next{i}_{state}"), f"fnext{i}_{state}", body, _aux(f"dec{i}")))
    contract = lay_out(f"TA_{machine.init}", machine.init, funcs)
    assert fragments.classify(contract).time_ahead
    return contract


def encode_d(machine: MinskyMachine) -> Contract:
    """Compile into the determinate fragment (function and event sources
    disjoint).

    Register-1 units ride at delay 1 and register-2 units at delay 3, each
    transferred five ticks ahead per simulated step through the copy loops
    at `_copy1`/`_copy2`.  Every machine instruction exists as sibling A/B
    functions; only the sibling matching the pending
    `_notickA/_notickB => _cont` management token can continue the
    simulation, and the token dies if time progresses out of schedule.
    """
    _check_encodable(machine)
    cont, dec1, dec2 = _aux("cont"), _aux("dec1"), _aux("dec2")
    ackdec1, ackdec2 = _aux("ackdec1"), _aux("ackdec2")
    notick = {"A": _aux("notickA"), "B": _aux("notickB")}
    funcs = [(_aux("start"), "fstart", [(0, notick["A"], cont)], machine.init)]
    for state, instr in _instructions(machine):
        if isinstance(instr, Inc):
            token = (1, dec1, ackdec1) if instr.register == 1 else (3, dec2, ackdec2)
            for mine, sibling in (("A", "B"), ("B", "A")):
                body = [token, (0, cont, instr.next), (0, notick[sibling], cont)]
                funcs.append((state, f"f{mine}inc_{state}", body, notick[mine]))
            continue
        zero, pos = instr.on_zero, instr.on_pos
        if instr.register == 1:
            dec_body = [
                (1, ackdec1, _aux(f"start1_{pos}")),
                (1, _aux("s1notick"), cont),
                (0, cont, dec1),
            ]
            zero_body_head = [
                (0, cont, dec1),
                (2, dec1, dec2),
                (3, ackdec2, _aux("copy2")),
                (3, _aux("c2notickA"), cont),
                (4, dec2, zero),
            ]
        else:
            dec_body = [
                (0, cont, dec1),
                (1, ackdec1, _aux("copy1")),
                (1, _aux("c1notickA"), cont),
                (2, dec1, dec2),
                (3, ackdec2, _aux(f"start2_{pos}")),
                (3, _aux("s2notick"), cont),
            ]
            zero_body_head = [
                (0, cont, dec1),
                (1, ackdec1, _aux("copy1")),
                (1, _aux("c1notickA"), cont),
                (2, dec1, dec2),
                (4, dec2, zero),
            ]
        for mine, sibling in (("A", "B"), ("B", "A")):
            funcs.append((state, f"f{mine}dec_{state}", dec_body, notick[mine]))
            zero_body = zero_body_head + [(5, notick[sibling], cont)]
            funcs.append((state, f"f{mine}zero_{state}", zero_body, notick[mine]))
    for state in sorted(machine.states):
        funcs.append((_aux(f"start1_{state}"), f"fstart1_{state}", [
            (0, ackdec1, _aux("copy1")),
            (0, cont, dec1),
            (0, _aux("c1notickA"), cont),
            (1, dec1, dec2),
            (2, ackdec2, _aux("copy2")),
            (2, _aux("c2notickA"), cont),
            (3, dec2, state),
            (4, notick["A"], cont),
        ], _aux("s1notick")))
        funcs.append((_aux(f"start2_{state}"), f"fstart2_{state}", [
            (0, ackdec2, _aux("copy2")),
            (0, cont, dec2),
            (0, _aux("c2notickA"), cont),
            (1, dec2, state),
            (2, notick["A"], cont),
        ], _aux("s2notick")))
    for i in (1, 2):
        dec_i = _aux(f"dec{i}")
        ackdec_i = _aux(f"ackdec{i}")
        for mine, sibling in (("A", "B"), ("B", "A")):
            funcs.append((_aux(f"copy{i}"), f"f{mine}copy{i}", [
                (0, ackdec_i, _aux(f"copy{i}")),
                (0, cont, dec_i),
                (0, _aux(f"c{i}notick{sibling}"), cont),
                (5, dec_i, ackdec_i),
            ], _aux(f"c{i}notick{mine}")))
    contract = lay_out(f"D_{machine.init}", _aux("start"), funcs)
    assert fragments.classify(contract).determinate
    return contract


def encode(machine: MinskyMachine, fragment: str) -> Contract:
    """Dispatch to the encoder for `fragment` ("i", "ta", or "d")."""
    encoders = {"i": encode_i, "ta": encode_ta, "d": encode_d}
    if fragment not in encoders:
        raise ValueError(f"unknown fragment {fragment!r}")
    return encoders[fragment](machine)
