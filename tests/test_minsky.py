import collections
import hashlib
import json
import pathlib
import tracemalloc

import pytest

import mustipula as mu
from mustipula import syntax
from mustipula.errors import (
    DanglingStateError,
    FinalHasInstructionError,
    MinskySyntaxError,
)
from mustipula.minsky import DecJump, Halted, Inc, MachineConfig, OutOfFuel
from mustipula.semantics import Configuration, Mode, PendingEvent, PendingSet

from helpers import (
    DENOTATION_MATCHERS,
    HALTING,
    MACHINES,
    erase_lines,
    inc_chain,
    machine_entry_edges,
    machine_suite,
)

TESTS = pathlib.Path(__file__).resolve().parent
SUITE = machine_suite()
M1 = SUITE["inc_dec_inc"]

SEARCH_LIMITS = {
    "i": mu.ExplorationLimits(60_000, 200, 16),
    "ta": mu.ExplorationLimits(60_000, 200, 20),
    "d": mu.ExplorationLimits(120_000, 400, 24),
}


def test_parse_minsky_three_instructions():
    assert M1.init == "Q0"
    assert M1.final == "QF"
    assert M1.program == {
        "Q0": Inc(1, "Q1"),
        "Q1": DecJump(1, "QF", "Q2"),
        "Q2": Inc(2, "QF"),
    }
    assert M1.states == {"Q0", "Q1", "Q2", "QF"}


def test_parse_minsky_trivial_machine_halts_immediately():
    machine = mu.parse_minsky("init Q0\nfinal Q0\n")
    assert machine.program == {}
    assert mu.minsky_run(machine, 10) == Halted(0, 0, 0)


@pytest.mark.parametrize(
    "build, error, message",
    [
        pytest.param(lambda: mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r3 QF\n"),
                     MinskySyntaxError, "line 3: cannot parse 'Q0: inc r3 QF'", id="bad_register"),
        pytest.param(lambda: mu.parse_minsky("init Q0\nfinal Q0\nQ0: inc r1 Q0\n"),
                     FinalHasInstructionError, "final state Q0 has an instruction", id="final_with_instruction"),
        pytest.param(lambda: mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 Qmissing\n"),
                     DanglingStateError, "instruction at Q0 jumps to Qmissing, which has no instruction and is not final",
                     id="dangling_state"),
        pytest.param(lambda: mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 QF\nQ0: inc r2 QF\n"),
                     MinskySyntaxError, "line 4: duplicate instruction for Q0", id="duplicate_instruction"),
        pytest.param(lambda: mu.parse_minsky("init _Q0\nfinal QF\n_Q0: inc r1 QF\n"),
                     MinskySyntaxError, "state name '_Q0' starts with '_', which is reserved for encoder auxiliaries",
                     id="reserved_prefix"),
        pytest.param(lambda: mu.parse_minsky("init Q0\nQ0 inc r1 QF\nfinal QF\n"),
                     MinskySyntaxError, "line 2: cannot parse 'Q0 inc r1 QF'", id="missing_colon"),
        pytest.param(lambda: mu.parse_minsky("init Q0\nQ0: inc r1 QF\n"),
                     MinskySyntaxError, "machine needs one 'init' and one 'final' line", id="no_final"),
        pytest.param(lambda: mu.parse_minsky("init Q0\ninit Q1\nfinal QF\n"),
                     MinskySyntaxError, "line 2: cannot parse 'init Q1'", id="second_init"),
        pytest.param(lambda: Inc(3, "Q"), MinskySyntaxError, "registers are r1 and r2", id="inc_register"),
        pytest.param(lambda: DecJump(0, "A", "B"), MinskySyntaxError, "registers are r1 and r2", id="decjump_register"),
    ],
)
def test_parse_minsky_rejects_bad_input(build, error, message):
    # Each input error, with its exact type and message.
    with pytest.raises(MinskySyntaxError) as err:
        build()
    assert type(err.value) is error and str(err.value) == message


def test_minsky_step_examples():
    inc = mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 Q1\nQ1: decjump r1 QF Q2\nQ2: inc r1 QF\n")
    assert mu.minsky_step(inc, MachineConfig("Q0", 0, 0)) == MachineConfig("Q1", 1, 0)
    assert mu.minsky_step(inc, MachineConfig("Q1", 1, 0)) == MachineConfig("Q2", 0, 0)
    assert mu.minsky_step(inc, MachineConfig("Q1", 0, 5)) == MachineConfig("QF", 0, 5)
    assert mu.minsky_step(inc, MachineConfig("QF", 1, 1)) is None


def test_minsky_run_examples():
    assert mu.minsky_run(M1, 10) == Halted(0, 1, 3)
    diverging = mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 Q0\n")
    assert mu.minsky_run(diverging, 5) == OutOfFuel()
    assert mu.minsky_run(SUITE["trivial"], 0) == Halted(0, 0, 0)
    assert mu.minsky_run(SUITE["r1_oscillator"], 99) == OutOfFuel()


def test_minsky_run_agrees_with_run_trajectory():
    for machine in SUITE.values():
        for fuel in range(8):
            trajectory = mu.run_trajectory(machine, fuel)
            last = trajectory[-1]
            if mu.minsky_step(machine, last) is None:
                expected = Halted(last.r1, last.r2, len(trajectory) - 1)
            else:
                expected = OutOfFuel()
            assert mu.minsky_run(machine, fuel) == expected


def test_minsky_run_keeps_constant_memory():
    tracemalloc.start()
    try:
        assert mu.minsky_run(SUITE["r1_oscillator"], 100_000) == OutOfFuel()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_run_trajectory_inc_dec_inc():
    assert mu.run_trajectory(M1, 10) == [
        MachineConfig("Q0", 0, 0),
        MachineConfig("Q1", 1, 0),
        MachineConfig("Q2", 0, 0),
        MachineConfig("QF", 0, 1),
    ]


def test_denote_registers_i():
    got = mu.denote_registers("i", 0, 0, "Q0")
    assert got == PendingSet([PendingEvent(0, 0, "_a_Q0", "_b_Q0")])
    two = mu.denote_registers("i", 2, 1, "Q")
    assert erase_lines(two) == tuple(
        sorted(
            [
                (0, "_dec1", "_ackdec1"),
                (0, "_dec1", "_ackdec1"),
                (0, "_dec2", "_ackdec2"),
                (0, "_a_Q", "_b_Q"),
            ]
        )
    )


def test_denote_registers_ta():
    got = mu.denote_registers("ta", 1, 0, "Q")
    assert erase_lines(got) == tuple(
        sorted([(1, "_dec1", "_ackdec1"), (1, "Q", "_end")])
    )


def test_denote_registers_d():
    got = mu.denote_registers("d", 0, 2, "A")
    assert erase_lines(got) == tuple(
        sorted(
            [
                (3, "_dec2", "_ackdec2"),
                (3, "_dec2", "_ackdec2"),
                (0, "_notickA", "_cont"),
            ]
        )
    )
    with pytest.raises(ValueError):
        mu.denote_registers("d", 0, 0, "Q0")
    with pytest.raises(ValueError):
        mu.denote_registers("x", 0, 0, "Q0")


def test_encode_ta_inc_row():
    machine = mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 QF\n")
    contract = mu.encode_ta(machine)
    finc = next(fn for fn in contract.functions if fn.name == "finc_Q0")
    assert finc.source == "Q0" and finc.target == "QF"
    assert [(ev.time.offset, ev.source, ev.target) for ev in finc.body] == [
        (1, "_dec1", "_ackdec1"),
        (1, "QF", "_end"),
    ]


def test_encode_ta_decjump_row_shape():
    contract = mu.encode_ta(M1)
    fdec = next(fn for fn in contract.functions if fn.name == "fdec_Q1")
    assert fdec.target == "_wait"
    assert len(fdec.body) == 8
    assert sorted(ev.time.offset for ev in fdec.body) == [1, 1, 2, 2, 2, 2, 2, 3]
    fzero = next(fn for fn in contract.functions if fn.name == "fzero_Q1")
    assert len(fzero.body) == 4


def test_encode_d_has_fstart():
    contract = mu.encode_d(M1)
    fstart = next(fn for fn in contract.functions if fn.name == "fstart")
    assert fstart.source == "_start" and fstart.target == "Q0"
    assert [(ev.time.offset, ev.source, ev.target) for ev in fstart.body] == [
        (0, "_notickA", "_cont")
    ]
    assert contract.init == "_start"


def test_encode_d_sibling_pairs_present():
    contract = mu.encode_d(M1)
    names = {fn.name for fn in contract.functions}
    for base in ("inc_Q0", "dec_Q1", "zero_Q1", "inc_Q2"):
        assert f"fA{base}" in names and f"fB{base}" in names
    for state in sorted(M1.states):
        assert f"fstart1_{state}" in names and f"fstart2_{state}" in names
    assert {"fAcopy1", "fBcopy1", "fAcopy2", "fBcopy2"} <= names


def test_encode_i_initial_steps_reach_denotation():
    contract = mu.encode_i(M1)
    cfg = mu.initial_config(contract)
    (label, after_call), = [
        (lab, nxt) for lab, nxt in mu.successors(cfg) if lab.kind == "call"
    ]
    assert label.name == "fstart"
    ((_, entered),) = mu.successors(after_call)
    assert entered.state == "Q0"
    assert erase_lines(entered.psi) == erase_lines(mu.denote_registers("i", 0, 0, "Q0"))


def test_encoders_classify_into_their_fragments():
    for machine in SUITE.values():
        assert mu.classify(mu.encode_i(machine)).instantaneous
        assert mu.classify(mu.encode_ta(machine)).time_ahead
        assert mu.classify(mu.encode_d(machine)).determinate
    # With instructions present the encodings sit in exactly one fragment.
    assert mu.classify(mu.encode_i(M1)).flags() == ("I",)
    assert mu.classify(mu.encode_ta(M1)).flags() == ("TA",)
    assert mu.classify(mu.encode_d(M1)).flags() == ("D",)


@pytest.mark.parametrize("fragment", ["i", "ta", "d"])
def test_encoders_number_lines_as_the_round_trip_does(fragment):
    # The encoders number event lines from the renderer's layout, without
    # rendering: the line-codes must be the ones a reparse would give.
    machines = [*SUITE.values(), *(inc_chain(n) for n in (1, 12, 100, 400))]
    for machine in machines:
        c = mu.encode(machine, fragment)
        assert mu.renumber(c) == c
        assert mu.parse(mu.render(c)) == c


# sha256 digests of `render(encode(machine, fragment))`, taken while the
# encoders still built every declaration at line 0 and then renumbered it,
# for the suite machines and inc_chain(1..12).
ENCODING_DIGESTS = json.loads((TESTS / "encoding_digests.json").read_text())


def test_encodings_match_the_pinned_digests():
    machines = {**SUITE, **{f"inc_chain{n}": inc_chain(n) for n in range(1, 13)}}
    digests = {}
    for name, machine in machines.items():
        for fragment in ("i", "ta", "d"):
            c = mu.encode(machine, fragment)
            assert mu.renumber(c) == c
            digests[f"{name}/{fragment}"] = hashlib.sha256(mu.render(c).encode()).hexdigest()
    assert digests == ENCODING_DIGESTS


def test_encoders_build_each_declaration_once(monkeypatch):
    built = collections.Counter()
    for cls in (syntax.EventDecl, syntax.FunctionDecl, syntax.TimeExpr):

        def counted(*args, cls=cls):
            built[cls.__name__] += 1
            return cls(*args)

        # Also where `minsky` would hold its own import of the class.
        for module in (syntax, mu.minsky):
            monkeypatch.setattr(module, cls.__name__, counted, raising=False)
    for n in (1, 12, 100):
        for fragment in ("i", "ta", "d"):
            built.clear()
            c = mu.encode(inc_chain(n), fragment)
            assert built == {
                "EventDecl": sum(1 for _ in c.events()),
                "FunctionDecl": len(c.functions),
                "TimeExpr": len({ev.time.offset for ev in c.events()}),
            }


def test_encoders_need_no_validate(monkeypatch):
    # `lay_out` gives distinct line-codes and distinct machine states give
    # distinct function names, so no encoder re-checks its output.
    def forbidden(contract):
        raise AssertionError("an encoder ran syntax.validate")

    machines = [*SUITE.values(), *(inc_chain(n) for n in (1, 12, 100))]
    encodings = []
    with monkeypatch.context() as patch:
        # Also where `minsky` would hold its own import of `validate`.
        for module in (syntax, mu.minsky):
            patch.setattr(module, "validate", forbidden, raising=False)
        for machine in machines:
            for fragment in ("i", "ta", "d"):
                encodings.append(mu.encode(machine, fragment))
    for c in encodings:
        assert mu.validate(c) is c


def test_encode_dispatch():
    assert mu.encode(M1, "i") == mu.encode_i(M1)
    with pytest.raises(ValueError):
        mu.encode(M1, "q")


@pytest.mark.parametrize("name", sorted(MACHINES))
@pytest.mark.parametrize("fragment", ["i", "ta", "d"])
def test_halting_transfer(name, fragment):
    machine = SUITE[name]
    encoded = mu.encode(machine, fragment)
    verdict = mu.bounded_reach(encoded, machine.final, SEARCH_LIMITS[fragment])
    assert (verdict.status == "reachable") == HALTING[name]


def test_single_state_pump_never_reaches_final_state():
    machine = mu.parse_minsky("init Q0\nfinal QF\nQ0: inc r1 Q0\n")
    encoded = mu.encode_i(machine)
    verdict = mu.bounded_reach(encoded, "QF", mu.ExplorationLimits(20_000, 100, 10))
    assert verdict.status == "unknown"


@pytest.mark.parametrize("fragment", ["i", "ta", "d"])
def test_simulation_soundness_small_registers(fragment):
    # Every machine transition is matched by an encoded path between
    # denotation configurations.
    matcher = DENOTATION_MATCHERS[fragment]
    for machine in SUITE.values():
        encoded = mu.encode(machine, fragment)
        for state in sorted(machine.program):
            for v1 in range(3):
                for v2 in range(3):
                    src = MachineConfig(state, v1, v2)
                    dst = mu.minsky_step(machine, src)
                    anchor = "A" if fragment == "d" else state
                    start = Configuration(
                        encoded, state, None,
                        mu.denote_registers(fragment, v1, v2, anchor), 0,
                    )
                    exploration, _ = mu.explore(
                        encoded, Mode.TICK, SEARCH_LIMITS[fragment], start=start
                    )
                    kwargs = {"allow_shift": False} if fragment == "d" else {}
                    assert any(
                        cfg.sigma is None
                        and cfg.state == dst.state
                        and matcher(cfg.state, cfg.psi, **kwargs) == (dst.r1, dst.r2)
                        for cfg in exploration.configs
                    ), (machine.init, fragment, src, dst)


@pytest.mark.parametrize("fragment", ["i", "ta", "d"])
def test_simulation_adequacy_entries_are_reachable_denotations(fragment):
    # Exploring the whole encoding, every transition from an auxiliary state
    # into a machine state lands on a denotation (or, for the determinate
    # encoding, its one-tick-early form) of a machine-reachable
    # configuration.
    matcher = DENOTATION_MATCHERS[fragment]
    for machine in SUITE.values():
        encoded = mu.encode(machine, fragment)
        reachable = set(mu.run_trajectory(machine, 400))
        for src, label, dst in machine_entry_edges(encoded, machine, SEARCH_LIMITS[fragment]):
            parsed = matcher(dst.state, dst.psi)
            assert parsed is not None, (machine.init, fragment, dst.state, erase_lines(dst.psi))
            assert MachineConfig(dst.state, *parsed) in reachable
