import copy
import dataclasses
import gc
import random
import weakref
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

import mustipula as mu
from mustipula import semantics
from mustipula.semantics import (
    EMPTY_PSI,
    Body,
    Configuration,
    Label,
    Mode,
    PendingEvent,
    PendingSet,
)
from mustipula.syntax import ClauseId, Contract, EventDecl, TimeExpr

from helpers import (
    GOLDEN_LABELS,
    chain,
    di_corpus,
    lively_contract,
    pingpong,
    reference_run_random,
    reference_successors,
    replay_labels,
    sample,
    trace_payload,
    wf_configs,
)

EV4 = PendingEvent(0, 4, "Q1", "Q2")
EV4_LATER = PendingEvent(1, 4, "Q1", "Q2")
EV7_NOW = PendingEvent(0, 7, "Q3", "Q0")

CORPUS40 = di_corpus(40)


def test_initial_config_examples():
    assert mu.initial_config(pingpong()) == Configuration(pingpong(), "Q0", None, EMPTY_PSI, 0)
    assert mu.initial_config(sample()).state == "Init"
    empty = Contract("E", "Q", ())
    assert mu.initial_config(empty) == Configuration(empty, "Q", None, EMPTY_PSI, 0)


def test_nored_examples():
    assert mu.nored(EMPTY_PSI, "Q0") is True
    assert mu.nored(PendingSet([EV4]), "Q1") is False
    assert mu.nored(PendingSet([EV4_LATER, EV7_NOW]), "Q1") is True
    ev2 = PendingEvent(0, 2, "Q1", "Q0")
    psi = PendingSet([EV4, EV7_NOW, EV4, ev2, EV4_LATER])
    assert mu.semantics.firable(psi, "Q1") == [ev2, EV4]


def test_decrement_examples():
    assert mu.decrement(PendingSet([EV4_LATER])) == PendingSet([EV4])
    assert mu.decrement(PendingSet([EV4])) == EMPTY_PSI
    assert mu.decrement(EMPTY_PSI) == EMPTY_PSI


def test_decrement_shares_events_through_its_memo():
    later = PendingEvent(2, 7, "Q3", "Q0")
    psi = PendingSet([EV4, EV4_LATER, EV4_LATER, later])
    lowered = {}
    once, again = mu.decrement(psi, lowered), mu.decrement(psi, lowered)
    assert once == again == mu.decrement(psi) == PendingSet([EV4, EV4, later._replace(delay=1)])
    assert all(a is b for a, b in zip(once, again))
    assert lowered == {EV4_LATER: EV4, later: later._replace(delay=1)}


def test_lower_examples():
    ping = pingpong().functions[0]
    assert mu.lower(ping.body) == PendingSet([PendingEvent(1, 4, "Q1", "Q2")])
    assert mu.lower(()) == EMPTY_PSI


def test_lower_duplicate_event_text_keeps_multiplicity():
    src = (
        "stipula E {\n  init Q\n  @Q f {\n"
        "    now >> @A => @B\n    now >> @A => @B\n  } => @R\n}"
    )
    body = mu.parse(src).functions[0].body
    lowered = mu.lower(body)
    assert len(lowered) == 2
    assert len({ev.line for ev in lowered}) == 2


def test_successors_pingpong_initial():
    got = {
        (lab.text(), nxt.state, nxt.sigma, nxt.psi, nxt.clock)
        for lab, nxt in mu.successors(mu.initial_config(pingpong()))
    }
    assert got == {
        ("tick", "Q0", None, EMPTY_PSI, 1),
        ("call:ping", "Q0", Body(PendingSet([EV4_LATER]), "Q1"), EMPTY_PSI, 0),
    }


def test_event_preempts_functions_and_tick():
    pp = pingpong()
    cfg = Configuration(pp, "Q1", None, PendingSet([EV4]), 5)
    got = mu.successors(cfg, Mode.TICK)
    assert [lab.text() for lab, _ in got] == ["ev:4"]
    _, nxt = got[0]
    assert nxt.sigma == Body(EMPTY_PSI, "Q2")
    assert nxt.psi == EMPTY_PSI
    assert nxt.clock == 5


def test_sample_go_is_terminal_under_tickplus():
    cfg = Configuration(sample(), "Go", None, EMPTY_PSI, 2)
    assert mu.successors(cfg, Mode.TICK_PLUS) == []


def test_statechange_is_deterministic():
    pp = pingpong()
    cfg = Configuration(pp, "Q0", Body(PendingSet([EV4_LATER]), "Q1"), PendingSet([EV7_NOW]), 1)
    got = mu.successors(cfg)
    assert len(got) == 1
    lab, nxt = got[0]
    assert lab.text() == "statechange"
    assert nxt.state == "Q1"
    assert nxt.sigma is None
    assert nxt.psi == PendingSet([EV4_LATER, EV7_NOW])
    assert nxt.clock == 1


def test_duplicate_firable_occurrences_yield_one_successor_each_line():
    pp = pingpong()
    cfg = Configuration(pp, "Q1", None, PendingSet([EV4, EV4]), 0)
    got = mu.successors(cfg)
    assert [lab.text() for lab, _ in got] == ["ev:4"]
    assert got[0][1].psi == PendingSet([EV4])

    other = PendingEvent(0, 9, "Q1", "Q0")
    cfg2 = Configuration(pp, "Q1", None, PendingSet([EV4, other]), 0)
    assert [lab.text() for lab, _ in mu.successors(cfg2)] == ["ev:4", "ev:9"]


def test_tick_mode_always_has_a_successor():
    for contract in CORPUS40[:20]:
        for cfg in wf_configs(contract, 1):
            assert mu.successors(cfg, Mode.TICK)


def test_golden_pingpong_trace_replays():
    trace = replay_labels(pingpong(), GOLDEN_LABELS)
    assert trace.labels() == GOLDEN_LABELS
    last = trace.steps[-1].config
    assert (last.state, last.sigma, last.psi, last.clock) == ("Q0", None, EMPTY_PSI, 3)


def test_golden_trace_after_leading_ticks():
    trace = replay_labels(pingpong(), ["tick", "tick"] + GOLDEN_LABELS)
    assert trace.steps[-1].config.clock == 5


def test_run_random_zero_steps():
    assert len(mu.run_random(pingpong(), 0, 7)) == 0


def test_run_random_deterministic_in_seed():
    a = mu.run_random(pingpong(), 50, 3)
    b = mu.run_random(pingpong(), 50, 3)
    assert a == b


def test_sample_tickplus_runs_absorb_in_run_or_go():
    for seed in range(20):
        trace = mu.run_random(sample(), 100, seed, Mode.TICK_PLUS)
        assert trace.steps[-1].config.state in {"Run", "Go"}


def test_pingpong_pending_multiset_stays_small():
    for seed in range(10):
        trace = mu.run_random(pingpong(), 200, seed)
        assert all(len(step.config.psi) <= 1 for step in trace.steps)


def assert_walk_agrees_with_reference(contract, steps, seed, mode):
    """A full-length walk equal to the reference's, with `successors` equal
    to the reference's at every configuration on it."""
    got = mu.run_random(contract, steps, seed, mode)
    assert len(got) == steps
    assert mu.trace_json(got) == mu.trace_json(reference_run_random(contract, steps, seed, mode))
    for cfg in [mu.initial_config(contract), *(step.config for step in got.steps)]:
        assert mu.successors(cfg, mode) == reference_successors(cfg, mode)


@pytest.mark.parametrize("mode, steps", [(Mode.TICK, 800), (Mode.TICK_PLUS, 250)])
def test_long_walks_agree_with_reference(mode, steps):
    for seed in range(5):
        assert_walk_agrees_with_reference(lively_contract(random.Random(seed)), steps, seed, mode)


def test_long_pingpong_walks_agree_with_reference():
    for seed in range(3):
        assert_walk_agrees_with_reference(pingpong(), 4000, seed, Mode.TICK)


def test_walk_caches_belong_to_one_contract():
    # The options per state and the moves per firing are built once per
    # contract and kept apart per mode: a renamed copy, equal in every
    # clause, builds its own, and a walk in one mode reads nothing that a
    # walk in the other left behind.
    a = lively_contract(random.Random(3))
    b = dataclasses.replace(a, name="Renamed")
    for mode, steps in ((Mode.TICK, 800), (Mode.TICK_PLUS, 250)):
        expected = mu.trace_json(reference_run_random(a, steps, 5, mode))
        walks = [mu.run_random(c, steps, 5, mode) for c in (a, b)]
        assert [mu.trace_json(walk) for walk in walks] == [expected, expected]
        assert all(step.config.contract is b for step in walks[1].steps)
    pairs = [
        (getattr(a.memo[mode], part), getattr(b.memo[mode], part))
        for mode in Mode
        for part in ("idle", "fires", "lowered")
    ]
    for cached_a, cached_b in pairs:
        assert cached_a == cached_b and cached_a and cached_a is not cached_b
        assert all(cached_a[key] is not cached_b[key] for key in cached_a if cached_a[key])
    # An event declared with offset d is lowered from delays d, ..., 1 at
    # most, so the shared events stay bounded however long the walk.
    for mode in Mode:
        assert len(a.memo[mode].lowered) <= sum(ev.time.offset for ev in a.events())
    # A tick-plus state in InitEv has no tick among its options.
    tickplus_idle = a.memo[Mode.TICK_PLUS].idle
    assert all((semantics.TICK in tickplus_idle[q]) == (q not in a.init_ev) for q in tickplus_idle)


def test_walk_caches_close_no_cycle():
    # The memo holds no reference back to its contract, so a contract that
    # was walked is freed as soon as it is dropped, with the collector off,
    # as the CLI runs.
    contract = pingpong()
    for mode in Mode:
        mu.run_random(contract, 200, 1, mode)
    assert set(contract.memo) == set(Mode)
    ref = weakref.ref(contract)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        del contract
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_tickplus_walk_stops_where_nothing_is_enabled():
    # After `f`, B is in InitEv, no function leaves it and its one pending
    # event is not yet due: tick-plus enables nothing there.
    contract = mu.parse("stipula S {\n init A\n @A f {\n now + 1 >> @B => @C\n } => @B\n}\n")
    got = mu.run_random(contract, 50, 0, Mode.TICK_PLUS)
    assert len(got) < 50 and got.labels()[-2:] == ["call:f", "statechange"]
    assert got.steps[-1].config.state == "B"
    assert mu.trace_json(got) == mu.trace_json(reference_run_random(contract, 50, 0, Mode.TICK_PLUS))


@pytest.mark.parametrize(
    "contract, steps, mode",
    [
        (pingpong(), 4000, Mode.TICK),
        (lively_contract(random.Random(11)), 800, Mode.TICK),
        (lively_contract(random.Random(11)), 250, Mode.TICK_PLUS),
    ],
    ids=["pingpong", "lively_tick", "lively_tickplus"],
)
def test_walk_builds_only_the_move_it_takes(monkeypatch, contract, steps, mode):
    # The walk draws among the enabled options before it builds one, so it
    # decrements psi once per tick taken and never for a tick left untaken.
    calls = Counter()

    def counting(psi, lowered=None):
        calls["decrement"] += 1
        return mu.decrement(psi, lowered)

    monkeypatch.setattr(semantics, "decrement", counting)
    trace = mu.run_random(contract, steps, 5, mode)
    assert calls["decrement"] == trace.labels().count("tick") > 0


def test_configurations_and_labels_are_slotted_value_objects():
    psi = PendingSet([EV4])
    cfg = Configuration(pingpong(), "Q1", None, psi, 3)
    other = Configuration(sample(), "Q1", None, psi, 3)
    assert cfg == other and hash(cfg) == hash(other)
    later = dataclasses.replace(cfg, clock=4)
    assert later.clock == 4 and later.contract is cfg.contract
    assert later != cfg and dataclasses.replace(later, clock=3) == other
    assert Label("event", line=4) == Label("event", line=4)
    assert hash(Label("event", line=4)) == hash(Label("event", line=4))
    assert Label("event", line=4) != Label("event", line=7)
    for record in (cfg, Label("tick")):
        with pytest.raises(TypeError):
            vars(record)


GO_END = PendingEvent(2, 4, "Go", "End")


@pytest.mark.parametrize(
    "value, fields, text",
    [
        (
            EventDecl(TimeExpr(2), "Q1", "Q2", 4),
            ("time", "source", "target", "line"),
            "EventDecl(time=TimeExpr(offset=2), source='Q1', target='Q2', line=4)",
        ),
        (
            Configuration(None, "Q1", None, PendingSet([GO_END]), 3),
            ("contract", "state", "sigma", "psi", "clock"),
            "Configuration(state='Q1', sigma=None, psi=(PendingEvent(delay=2, line=4, "
            "source='Go', target='End'),), clock=3)",
        ),
        (
            Configuration(None),
            ("contract", "state", "sigma", "psi", "clock"),
            "Configuration(state='', sigma=None, psi=(), clock=0)",
        ),
        (
            Label("call", name="f"),
            ("kind", "name", "line"),
            "Label(kind='call', name='f', line=None)",
        ),
        (semantics.TICK, ("kind", "name", "line"), "Label(kind='tick', name=None, line=None)"),
        (
            ClauseId("event", "Go", "ev_4", "End"),
            ("kind", "source", "label", "target"),
            "ClauseId(kind='event', source='Go', label='ev_4', target='End')",
        ),
        (mu.Trace(()), ("steps",), "Trace(steps=())"),
        (
            mu.Verdict("unknown", None, "psi"),
            ("status", "witness", "detail"),
            "Verdict(status='unknown', witness=None, detail='psi')",
        ),
    ],
    ids=[
        "event", "configuration", "configuration-defaults", "call-label", "tick-label", "clause",
        "trace", "verdict",
    ],
)
def test_value_types_keep_their_contract(value, fields, text):
    # The hand-written __init__s of the slotted frozen types keep what the
    # generated ones gave: fields, defaults, keywords, repr, eq and hash.
    cls = type(value)
    assert tuple(f.name for f in dataclasses.fields(cls)) == fields
    assert repr(value) == text
    kwargs = {name: getattr(value, name) for name in fields}
    assert cls(**kwargs) == value and cls(*kwargs.values()) == value
    compared = tuple(f.name for f in dataclasses.fields(cls) if f.compare)
    assert hash(value) == hash(tuple(getattr(value, name) for name in compared))
    assert dataclasses.replace(value) == value and copy.deepcopy(value) == value
    assert copy.deepcopy(value) is not value
    for name in fields:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    with pytest.raises(TypeError):
        vars(value)
    changed = dataclasses.replace(value, **{fields[-1]: 99})
    assert getattr(changed, fields[-1]) == 99 and changed != value


def test_is_stuck():
    assert mu.is_stuck(Configuration(sample(), "Go", None, EMPTY_PSI, 0))
    assert mu.is_stuck(Configuration(sample(), "Run", None, EMPTY_PSI, 0))
    assert not mu.is_stuck(mu.initial_config(sample()))
    assert not mu.is_stuck(mu.initial_config(pingpong()))
    # A pending event elsewhere is ticked away before Go could ever fire it.
    ghost = PendingEvent(2, 4, "Go", "End")
    assert mu.is_stuck(Configuration(sample(), "Run", None, PendingSet([ghost]), 0))


def _only_ticks_ever(cfg):
    """Step the plain tick rule until psi has emptied and one more round,
    checking that nothing but the tick is ever enabled."""
    for _ in range(max((ev.delay for ev in cfg.psi), default=0) + 2):
        steps = mu.successors(cfg, Mode.TICK)
        if [lab.kind for lab, _ in steps] != ["tick"]:
            return False
        cfg = steps[0][1]
    return True


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_is_stuck_matches_ticking_out(data):
    contract = data.draw(st.sampled_from([sample(), pingpong(), chain()]))
    states = sorted(contract.states())
    state = st.sampled_from(states)
    events = st.lists(
        st.builds(PendingEvent, st.integers(0, 3), st.integers(1, 9), state, state),
        max_size=4,
    )
    sigma = data.draw(st.sampled_from([None, Body(EMPTY_PSI, states[0])]))
    cfg = Configuration(contract, data.draw(state), sigma, PendingSet(data.draw(events)), 0)
    assert mu.is_stuck(cfg) == _only_ticks_ever(cfg)


def test_trace_json_schema():
    trace = replay_labels(pingpong(), GOLDEN_LABELS[:3])
    payload = trace_payload(trace)
    assert [step["label"] for step in payload] == ["call:ping", "statechange", "tick"]
    assert payload[2] == {
        "label": "tick",
        "state": "Q1",
        "sigma": None,
        "psi": [[0, 4, "Q1", "Q2"]],
        "clock": 1,
    }


events_st = st.lists(
    st.builds(
        PendingEvent,
        st.integers(0, 3),
        st.integers(1, 9),
        st.sampled_from(["A", "B", "C"]),
        st.sampled_from(["A", "B", "C"]),
    ),
    max_size=6,
)


@given(events_st, events_st, st.sampled_from(["A", "B", "C"]))
def test_nored_antitone(base, extra, state):
    if mu.nored(PendingSet(base + extra), state):
        assert mu.nored(PendingSet(base), state)


@given(*[st.lists(st.sampled_from([EV4, EV4_LATER, EV7_NOW]), max_size=6)] * 2)
def test_issubmultiset_is_count_inclusion(a, b):
    small, big = PendingSet(a), PendingSet(b)
    assert small.issubmultiset(big) == (not Counter(a) - Counter(b))
    assert small.issubmultiset(small.union(b))


@given(events_st, events_st)
def test_multiset_operations_keep_canonical_order(a, b):
    psi = PendingSet(a)
    ticked = Counter(PendingEvent(ev.delay - 1, *ev[1:]) for ev in a if ev.delay > 0)
    cases = [(mu.decrement(psi), ticked), (psi.union(b), Counter(a) + Counter(b))]
    cases += [(psi.remove_one(ev), Counter(a) - Counter([ev])) for ev in set(a)]
    for out, want in cases:
        assert type(out) is PendingSet
        assert list(out) == sorted(out)
        assert Counter(out) == want
    assert psi.union(()) is psi


@given(events_st)
def test_decrement_shrinks_and_drops_elapsed(events):
    psi = PendingSet(events)
    out = mu.decrement(psi)
    assert len(out) == len(psi) - sum(1 for ev in psi if ev.delay == 0)
    assert all(ev.delay >= 0 for ev in out)
    assert sorted(ev.line for ev in out) == sorted(
        ev.line for ev in psi if ev.delay > 0
    )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_rule_invariants_on_random_di_configs(seed):
    rng = random.Random(seed)
    contract = CORPUS40[seed % 30]
    configs = wf_configs(contract, 2)
    cfg = configs[rng.randrange(len(configs))]
    for mode in (Mode.TICK, Mode.TICK_PLUS):
        steps = mu.successors(cfg, mode)
        kinds = {lab.kind for lab, _ in steps}
        if cfg.sigma is not None:
            assert kinds == {"statechange"} and len(steps) == 1
        if "event" in kinds:
            assert kinds == {"event"}
        for lab, nxt in steps:
            assert nxt.clock == cfg.clock + (1 if lab.kind == "tick" else 0)


def test_mode_agreement_outside_initev_or_with_continuation():
    # Tick and tick-plus agree whenever the state is not an event source or
    # sigma is non-empty, and whenever an event is firable.
    for contract in CORPUS40:
        initev = mu.init_ev(contract)
        for cfg in wf_configs(contract, 2):
            firable = any(
                ev.delay == 0 and ev.source == cfg.state for ev in cfg.psi
            )
            if cfg.state not in initev or cfg.sigma is not None or firable:
                assert mu.successors(cfg, Mode.TICK) == mu.successors(cfg, Mode.TICK_PLUS)


def test_mode_of():
    assert Mode("tick") is Mode.TICK
    assert Mode("tickplus") is Mode.TICK_PLUS
    with pytest.raises(ValueError):
        Mode("warp")


def test_chain_full_run():
    trace = replay_labels(chain(), ["call:f", "statechange", "ev:4", "statechange"])
    assert trace.steps[-1].config.state == "C"
