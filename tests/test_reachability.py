import dataclasses
import gc
import hashlib
import json
import os
import pathlib
import random
import subprocess
import sys
import weakref
from collections import Counter

import pytest

import mustipula as mu
from mustipula.errors import DifferentContractsError, InvalidContractError, NotDIError
from mustipula.semantics import (
    EMPTY_PSI, Body, Configuration, Mode, PackedStepTable, PendingEvent, PendingSet, StepTable,
    TraceStep,
)
from mustipula.reachability import Exploration
from mustipula.syntax import ClauseId, Contract, EventDecl, FunctionDecl, TimeExpr

from helpers import (
    all_clause_targets,
    chain,
    coverability_fixpoint_pairs,
    di_corpus,
    inc_chain,
    machine_suite,
    pingpong,
    psis_upto,
    random_di_contract,
    reference_decide_coverable,
    reference_explore,
    reference_path,
    reference_pred_basis,
    reference_run_random,
    reference_successors,
    reference_unreachable_clauses,
    sample,
    submultisets,
    wf_configs,
    wf_sigmas,
)

TESTS = pathlib.Path(__file__).resolve().parent

CORPUS = di_corpus(60)
LIMITS = mu.ExplorationLimits(50_000, 200, 6)
ENCODING_LIMITS = {
    "i": mu.ExplorationLimits(20_000, 200, 16),
    "ta": mu.ExplorationLimits(20_000, 200, 20),
    "d": mu.ExplorationLimits(20_000, 400, 24),
}


def _suite_encodings():
    """(contract, final state, limits) for PingPong and the i/ta/d
    encodings of the suite machines."""
    yield pingpong(), "Q3", LIMITS
    for machine in machine_suite().values():
        for fragment, limits in ENCODING_LIMITS.items():
            yield mu.encode(machine, fragment), machine.final, limits


def _assert_run(contract, witness, mode):
    """Each step is a successor of the one before, from the initial
    configuration, and its clock counts the ticks taken so far."""
    cfg, ticks = mu.initial_config(contract), 0
    for step in witness.steps:
        assert step in mu.successors(cfg, mode), step.label.text()
        ticks += step.label.kind == "tick"
        assert step.config.clock == ticks
        cfg = step.config


def _differential_corpus():
    """The full generated corpus plus the first 40 contracts of the
    `backward_di` benchmark corpus, which are larger."""
    rng = random.Random(7)
    heavy = [
        random_di_contract(rng, max_states=8, max_clauses=16, max_events=8) for _ in range(40)
    ]
    return di_corpus() + heavy


def _count_expansions(monkeypatch) -> list[tuple]:
    """Record every packed element the backward engine expands."""
    calls = []
    original = mu.reachability._Backward._preds

    def counted(self, key):
        calls.append(key)
        return original(self, key)

    monkeypatch.setattr(mu.reachability._Backward, "_preds", counted)
    return calls


def _cfg(contract, state, sigma=None, psi=EMPTY_PSI):
    return Configuration(contract, state, sigma, psi, 0)


def test_config_leq_examples():
    c = sample()
    inst = PendingEvent(0, 4, "Go", "End")
    assert mu.config_leq(_cfg(c, "Go"), _cfg(c, "Go", psi=PendingSet([inst])))
    assert not mu.config_leq(_cfg(c, "Go"), _cfg(c, "Run"))
    one = PendingSet([inst])
    two = PendingSet([inst, inst])
    assert mu.config_leq(_cfg(c, "Go", psi=one), _cfg(c, "Go", psi=two))
    assert not mu.config_leq(_cfg(c, "Go", psi=two), _cfg(c, "Go", psi=one))


def test_config_leq_ignores_clock_and_compares_sigma():
    c = sample()
    assert mu.config_leq(_cfg(c, "Go"), Configuration(c, "Go", None, EMPTY_PSI, 9))
    body = Body(EMPTY_PSI, "End")
    assert not mu.config_leq(_cfg(c, "Go"), _cfg(c, "Go", sigma=body))
    assert mu.config_leq(_cfg(c, "Go", sigma=body), _cfg(c, "Go", sigma=body))


def test_config_leq_rejects_different_contracts():
    with pytest.raises(DifferentContractsError):
        mu.config_leq(_cfg(sample(), "Go"), _cfg(pingpong(), "Go"))
    # Equal contracts parsed twice are the same contract.
    assert mu.config_leq(_cfg(sample(), "Go"), _cfg(sample(), "Go"))


def test_minimize_basis_examples():
    c = sample()
    inst = PendingEvent(0, 4, "Go", "End")
    small = _cfg(c, "Go")
    big = _cfg(c, "Go", psi=PendingSet([inst]))
    assert mu.minimize_basis([small, big]).elements == {small}
    assert mu.minimize_basis([]).elements == frozenset()
    other = _cfg(c, "Run")
    assert mu.minimize_basis([big, other]).elements == {big, other}


def test_cover_basis_keeps_minimal_elements_and_ignores_clocks():
    c = sample()
    inst = PendingEvent(0, 4, "Go", "End")
    small = _cfg(c, "Go")
    big = _cfg(c, "Go", psi=PendingSet([inst, inst]))
    basis = mu.CoverBasis([big])
    assert basis.covers(big) and not basis.covers(small)
    assert basis.add(small) and basis.keeps(small) and not basis.keeps(big)
    assert basis.elements == {small}
    assert not basis.add(Configuration(c, "Go", None, PendingSet([inst]), 7))
    assert basis.covers(Configuration(c, "Go", None, EMPTY_PSI, 3))
    assert not basis.covers(_cfg(c, "Go", sigma=Body(EMPTY_PSI, "End")))
    with pytest.raises(DifferentContractsError):
        basis.covers(_cfg(chain(), "Go"))


def test_pred_basis_requires_di():
    with pytest.raises(NotDIError):
        mu.pred_basis(pingpong(), mu.state_target(pingpong(), "Q3"))
    with pytest.raises(NotDIError):
        mu.decide_coverable(pingpong(), mu.state_target(pingpong(), "Q3"))


def test_pred_basis_rejects_a_target_of_another_contract():
    # Chain's state C and Sample's event at line 4 would give predecessors
    # built from Sample's clauses.
    for target in (mu.state_target(chain(), "C"), mu.event_target(chain(), 4)):
        with pytest.raises(DifferentContractsError):
            mu.pred_basis(sample(), target)
    # Equal contracts parsed twice are the same contract.
    c = chain()
    assert mu.pred_basis(chain(), mu.state_target(c, "C")) == mu.pred_basis(c, mu.state_target(c, "C"))


def test_pred_basis_chain_state_target():
    c = chain()
    got = mu.pred_basis(c, mu.state_target(c, "C"))
    assert got == {
        _cfg(c, "C"),
        _cfg(c, "B", sigma=Body(EMPTY_PSI, "C")),
    }


def test_pred_basis_chain_event_continuation():
    c = chain()
    inst = PendingEvent(0, 4, "B", "C")
    got = mu.pred_basis(c, _cfg(c, "B", sigma=Body(EMPTY_PSI, "C")))
    assert _cfg(c, "B", psi=PendingSet([inst])) in got


def test_pred_basis_chain_function_continuation_reaches_initial():
    c = chain()
    inst = PendingEvent(0, 4, "B", "C")
    target = _cfg(c, "A", sigma=Body(PendingSet([inst]), "B"))
    got = mu.pred_basis(c, target)
    assert _cfg(c, "A") in got


def test_pred_basis_tick_case_needs_empty_psi_and_no_initev():
    c = chain()
    # B is an event source, so no tick predecessor there even with empty psi.
    got = mu.pred_basis(c, mu.state_target(c, "B"))
    assert _cfg(c, "B") not in got
    inst = PendingEvent(0, 4, "B", "C")
    got2 = mu.pred_basis(c, _cfg(c, "C", psi=PendingSet([inst])))
    assert _cfg(c, "C", psi=PendingSet([inst])) not in got2


def test_pred_basis_agrees_with_reference_case_analysis():
    # Every continuation at every state, not only where a run can show it.
    checked = 0
    for c in CORPUS[:30]:
        sigmas = [sig for _, sig in wf_sigmas(c)]
        for state in sorted(c.states()):
            for sigma in sigmas:
                for psi in psis_upto(c, 2):
                    cfg = _cfg(c, state, sigma, psi)
                    assert mu.pred_basis(c, cfg) == reference_pred_basis(c, cfg), (mu.render(c), cfg)
                    checked += 1
    assert checked == 13_258


def test_pred_basis_rejects_events_it_cannot_pack():
    c = sample()
    bogus = PendingEvent(0, 99, "Go", "End")
    late = PendingEvent(1, 4, "Go", "End")
    for inst in (bogus, late):
        with pytest.raises(ValueError, match="is not declared in the contract"):
            mu.pred_basis(c, _cfg(c, "Go", psi=PendingSet([inst])))
        with pytest.raises(ValueError, match="is not declared in the contract"):
            mu.pred_basis(c, _cfg(c, "Init", sigma=Body(PendingSet([inst]), "Go")))


LOOP = """stipula Loop {
  init F
  @F loop {
    now >> @E => @X
  } => @F
  @F go { } => @E
}
"""


def test_counts_past_the_guard_bit_widen_the_fields():
    # 16-bit fields hold counts up to 2**15 - 1; a larger count must widen
    # the fields, never wrap into the next one.
    c = sample()
    inst = PendingEvent(0, 4, "Go", "End")
    target = _cfg(c, "Go", psi=PendingSet([inst] * 2**16))
    assert not mu.decide_coverable(c, target)
    assert mu.pred_basis(c, target) == reference_pred_basis(c, target)
    # `loop` schedules one `E ev_4 X` per call, so every count is reachable.
    c = mu.parse(LOOP)
    inst = PendingEvent(0, 4, "E", "X")
    # Packing the target crosses the guard, and so does the copy that
    # Event-Match adds.
    for state, copies in (("E", 2**15 + 1), ("X", 2**15 - 1)):
        engine = mu.reachability._Backward(c)
        assert engine.decide(_cfg(c, state, psi=PendingSet([inst] * copies)))
        assert engine.width == 32
    fired = _cfg(c, "E", sigma=Body(EMPTY_PSI, "X"), psi=PendingSet([inst] * (2**15 - 1)))
    assert mu.pred_basis(c, fired) == reference_pred_basis(c, fired)
    assert _cfg(c, "E", psi=PendingSet([inst] * 2**15)) in mu.pred_basis(c, fired)


def test_decide_coverable_sample():
    c = sample()
    assert not mu.decide_coverable(c, mu.state_target(c, "End"))
    assert not mu.decide_coverable(c, mu.event_target(c, 4))
    assert mu.decide_coverable(c, mu.state_target(c, "Run"))
    assert mu.decide_coverable(c, mu.state_target(c, "Go"))
    assert mu.decide_coverable(c, mu.state_target(c, "Init"))
    assert mu.decide_coverable(c, mu.state_target(sample(), "Run"))
    assert not mu.decide_coverable(c, mu.event_target(sample(), 4))


def test_decide_coverable_chain():
    c = chain()
    for q in ("A", "B", "C"):
        assert mu.decide_coverable(c, mu.state_target(c, q))
    assert mu.decide_coverable(c, mu.event_target(c, 4))


def test_decide_coverable_initial_target_is_trivial(monkeypatch):
    calls = _count_expansions(monkeypatch)
    for c in CORPUS[:20]:
        assert mu.decide_coverable(c, mu.state_target(c, c.init))
    assert calls == []


def test_decide_coverable_validates_targets():
    c = sample()
    with pytest.raises(ValueError):
        mu.decide_coverable(c, _cfg(c, "Go", sigma=Body(EMPTY_PSI, "End")))
    bogus = PendingEvent(0, 99, "Go", "End")
    with pytest.raises(ValueError):
        mu.decide_coverable(c, _cfg(c, "Go", psi=PendingSet([bogus])))
    with pytest.raises(DifferentContractsError):
        mu.decide_coverable(c, mu.state_target(chain(), "C"))


def test_event_target_unknown_line():
    with pytest.raises(ValueError):
        mu.event_target(sample(), 5)


def test_bounded_reach_pingpong():
    verdict = mu.bounded_reach(pingpong(), "Q3", LIMITS)
    assert verdict.status == "reachable"
    labels = verdict.witness.labels()
    for needed in ("call:ping", "ev:4", "call:pong"):
        assert needed in labels
    assert labels == [
        "call:ping", "statechange", "tick", "ev:4", "statechange",
        "call:pong", "statechange",
    ]


def test_bounded_reach_unknown_on_unreachable_state():
    verdict = mu.bounded_reach(sample(), "End", LIMITS)
    assert verdict.status == "unknown"
    assert verdict.witness is None
    assert verdict.detail == "exhausted: 6 configurations, no limit hit"


def test_bounded_reach_initial_state_gives_empty_witness():
    verdict = mu.bounded_reach(sample(), "Init", LIMITS)
    assert verdict.status == "reachable"
    assert len(verdict.witness) == 0


def test_bounded_reach_witness_clock_rematerialized():
    reached = 0
    for contract, final, limits in _suite_encodings():
        for mode in Mode:
            verdict = mu.bounded_reach(contract, final, limits, mode)
            if verdict.status != "reachable" or final == contract.init:
                continue
            assert len(verdict.witness) > 0
            assert verdict.witness.steps[-1].config.state == final
            _assert_run(contract, verdict.witness, mode)
            reached += 1
    assert reached == 17


def test_explore_clocks_count_ticks_on_tree_paths():
    contract = mu.encode(machine_suite()["count_down"], "d")
    exploration, _ = mu.explore(contract, Mode.TICK, ENCODING_LIMITS["d"])
    last = len(exploration.packed) - 1
    witness = exploration.path(last)
    assert "configs" not in vars(exploration)  # built only when asked for
    assert exploration.complete and len(exploration.configs) > 100
    assert exploration.path(last) == witness
    assert exploration.path(0) == ()
    for node, cfg in enumerate(exploration.configs[1:], 1):
        path = exploration.path(node)
        assert path[-1].config is cfg
        assert cfg.clock == sum(step.label.kind == "tick" for step in path)


def test_witnesses_follow_clauses_that_share_a_name():
    # Two clauses `A f` with different targets have the same label, so a
    # witness must be the path actually found, not a replay of its labels.
    src = (
        "stipula D {\n  init A\n"
        "  @A f {\n    now + 1 >> @B => @A\n  } => @B\n"
        "  @A f {\n    now + 1 >> @B => @A\n  } => @C\n}"
    )
    contract = mu.parse(src)
    assert not mu.classify(contract).det_instantaneous
    verdict = mu.bounded_reach(contract, "C", LIMITS)
    assert verdict.witness.labels() == ["call:f", "statechange"]
    assert verdict.witness.steps[-1].config.state == "C"
    got = mu.unreachable_clauses(contract, LIMITS)
    # The event of the second clause waits at B, which that clause leaves.
    assert [v.status for v in got.values()] == ["reachable"] * 3 + ["unknown"]
    for clause, verdict in list(got.items())[:3]:
        _assert_run(contract, verdict.witness, Mode.TICK)
        assert verdict.witness.steps[-1].config.sigma.target == clause.target


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        mu.ExplorationLimits(0, 1, 1)


def test_explore_reports_clock_limit():
    src = "stipula T {\n  init A\n  @A f {\n    now + 2 >> @B => @C\n  } => @B\n}"
    contract = mu.parse(src)
    capped = mu.ExplorationLimits(1000, 1, 8)
    verdict = mu.bounded_reach(contract, "C", capped)
    assert (verdict.status, verdict.detail) == ("unknown", "clock")
    exploration, _ = mu.explore(contract, Mode.TICK, capped)
    assert exploration.limit_hit == "clock"
    assert max(c.clock for c in exploration.configs) == 1
    verdict = mu.bounded_reach(contract, "C", mu.ExplorationLimits(1000, 2, 8))
    assert verdict.status == "reachable"
    assert verdict.witness.labels() == [
        "call:f", "statechange", "tick", "tick", "ev:4", "statechange",
    ]


def test_explore_steps_back_to_visited_configurations_hit_no_limit():
    # The last tick at B leads back to (B, --, --): it prunes nothing, so
    # the search is complete under either clock cap.
    src = "stipula T {\n  init A\n  @A f {\n    now + 1 >> @X => @Y\n  } => @B\n}"
    contract = mu.parse(src)
    for max_clock in (2, 3):
        limits = mu.ExplorationLimits(1000, max_clock, 8)
        exploration, _ = mu.explore(contract, Mode.TICK, limits)
        assert len(exploration.configs) == 5
        assert (exploration.complete, exploration.limit_hit) == (True, None)


def test_explore_reports_psi_limit():
    src = "stipula P {\n  init Q\n  @Q f {\n    now >> @A => @B\n  } => @Q\n}"
    pump = mu.parse(src)
    exploration, _ = mu.explore(pump, Mode.TICK, mu.ExplorationLimits(1000, 50, 3))
    assert not exploration.complete
    assert exploration.limit_hit == "psi"
    assert all(len(c.psi) <= 3 for c in exploration.configs)


def test_explore_counts_what_each_limit_pruned():
    src = "stipula P {\n  init Q\n  @Q f {\n    now + 5 >> @A => @B\n  } => @Q\n}"
    exploration, _ = mu.explore(mu.parse(src), Mode.TICK, mu.ExplorationLimits(1000, 2, 3))
    assert (len(exploration.packed), exploration.limit_hit) == (40, "psi")
    assert exploration.pruned == {"psi": 10, "clock": 10, "configs": 0}
    contract = mu.encode(inc_chain(3), "d")
    exploration, _ = mu.explore(contract, Mode.TICK_PLUS, mu.ExplorationLimits(60, 10, 6))
    assert (len(exploration.packed), exploration.limit_hit) == (60, "configs")
    assert exploration.pruned == {"psi": 4, "clock": 0, "configs": 1}

def test_unreachable_clauses_sample():
    verdicts = mu.unreachable_clauses(sample())
    got = {ci.text(): v.status for ci, v in verdicts.items()}
    assert got == {
        "Init f Run": "reachable",
        "Init g Go": "reachable",
        "Go ev_4 End": "unreachable",
    }
    # The DI verdicts carry no witness, so equal ones are one shared value.
    assert set(map(id, verdicts.values())) == {id(mu.Verdict.reachable()), id(mu.Verdict.unreachable())}


def test_unreachable_clauses_expands_each_target_once(monkeypatch):
    calls = _count_expansions(monkeypatch)
    total = 0
    for c in CORPUS:
        calls.clear()
        mu.unreachable_clauses(c)
        assert len(calls) == len(set(calls)), mu.render(c)
        total += len(calls)
    assert total > 0


def test_decide_coverable_skips_replaced_elements(monkeypatch):
    # A hand-made predecessor graph, returned as lists so that the order of
    # admission is fixed.  Expanding m admits s, which replaces l in the
    # (Run, --) bucket before l is popped, so l is never expanded.
    c = sample()
    inst = PendingEvent(0, 4, "Go", "End")
    cfgs = [
        _cfg(c, "Go", psi=PendingSet([inst])),
        _cfg(c, "Run", psi=PendingSet([inst])),
        _cfg(c, "Run", sigma=Body(EMPTY_PSI, "Go")),
        _cfg(c, "Run"),
    ]
    # The engine's own packing; sigma ids are interned in contract order,
    # so every engine for `c` packs alike.
    engine = mu.reachability._Backward(c)
    target, l, m, s = (engine.packed(lambda key: key, cfg) for cfg in cfgs)
    graph = {target: (m, l), m: (s,), l: (), s: ()}
    calls = []

    def fake(self, key):
        calls.append(key)
        return graph[key]

    monkeypatch.setattr(mu.reachability._Backward, "_preds", fake)
    assert not mu.decide_coverable(c, cfgs[0])
    assert calls == [target, m, s]


def test_unreachable_clauses_chain_all_reachable():
    got = mu.unreachable_clauses(chain())
    assert {v.status for v in got.values()} == {"reachable"}


def test_unreachable_clauses_pingpong_forward_fallback():
    got = mu.unreachable_clauses(pingpong(), LIMITS)
    assert {v.status for v in got.values()} == {"reachable"}
    for verdict in got.values():
        assert verdict.witness is not None
    ev4 = next(ci for ci in got if ci.label == "ev_4")
    assert got[ev4].witness.labels()[-1] == "ev:4"
    witnesses = 0
    for contract, _, limits in _suite_encodings():
        for mode in Mode:
            for clause, verdict in mu.unreachable_clauses(contract, limits, mode).items():
                if verdict.witness is None:
                    continue
                _assert_run(contract, verdict.witness, mode)
                last = verdict.witness.steps[-1]
                if clause.kind == "function":
                    assert last.label.text() == f"call:{clause.label}"
                else:
                    assert last.label.text() == clause.label.replace("ev_", "ev:")
                assert last.config.state == clause.source
                assert last.config.sigma.target == clause.target
                witnesses += 1
    assert witnesses > 400


def test_verdict_payload_schema():
    got = mu.unreachable_clauses(pingpong(), LIMITS)
    clause = next(ci for ci in got if ci.label == "ping")
    payload = mu.reachability.verdict_payload(clause, got[clause])
    assert payload["clause"] == "Q0 ping Q1"
    assert payload["verdict"] == "reachable"
    assert isinstance(payload["witness"], list)


def test_wqo_smoke_dominated_pair_in_long_sequences():
    c = chain()
    insts = [PendingEvent(0, 4, "B", "C")]
    rng = random.Random(13)
    sigmas = [sig for _, sig in wf_sigmas(c)]
    states = sorted(c.states())
    seen: list[Configuration] = []
    found = False
    for _ in range(10_000):
        psi = PendingSet(insts * rng.randint(0, 50))
        cfg = Configuration(c, rng.choice(states), rng.choice(sigmas), psi, 0)
        if any(mu.config_leq(old, cfg) for old in seen):
            found = True
            break
        seen.append(cfg)
    assert found


def test_quasi_ordering_reflexive_transitive():
    for c in CORPUS[:10]:
        configs = wf_configs(c, 2)
        for cfg in configs:
            assert mu.config_leq(cfg, cfg)
        rng = random.Random(7)
        for _ in range(500):
            a, b, d = (rng.choice(configs) for _ in range(3))
            if mu.config_leq(a, b) and mu.config_leq(b, d):
                assert mu.config_leq(a, d)


def test_ordering_antisymmetric_up_to_equality():
    for c in CORPUS[:5]:
        configs = wf_configs(c, 2)
        for a in configs:
            for b in configs:
                if mu.config_leq(a, b) and mu.config_leq(b, a):
                    assert a == b


def test_upward_compatibility_spot_check():
    for c in CORPUS[:10]:
        for big in wf_configs(c, 2):
            big_steps = mu.successors(big, Mode.TICK_PLUS)
            for small_psi in submultisets(big.psi):
                small = Configuration(c, big.state, big.sigma, small_psi, 0)
                for _, nxt in mu.successors(small, Mode.TICK_PLUS):
                    assert any(
                        mu.config_leq(nxt, cand) for _, cand in big_steps
                    ) or any(
                        mu.config_leq(nxt, cand2)
                        for _, cand1 in big_steps
                        for _, cand2 in mu.successors(cand1, Mode.TICK_PLUS)
                    )


def test_pred_basis_one_step_soundness_on_corpus_sample():
    for c in CORPUS[:15]:
        for target in all_clause_targets(c):
            for t, p in coverability_fixpoint_pairs(c, target):
                assert any(
                    mu.config_leq(t, nxt) for _, nxt in mu.successors(p, Mode.TICK_PLUS)
                )


def test_decide_agrees_with_exhaustive_forward_search():
    for c in CORPUS[:30]:
        exploration, _ = mu.explore(c, Mode.TICK_PLUS, mu.ExplorationLimits(30_000, 200, 8))
        if not exploration.complete:
            continue
        forward = exploration.visited_states()
        for q in sorted(c.states()):
            assert mu.decide_coverable(c, mu.state_target(c, q)) == (q in forward)


def test_forward_reachable_implies_coverable_even_when_capped():
    for c in CORPUS[:30]:
        for q in sorted(mu.reachable_states(c, LIMITS, Mode.TICK_PLUS)):
            assert mu.decide_coverable(c, mu.state_target(c, q))


def test_unreachable_verdict_survives_limit_escalation():
    checked = 0
    for c in CORPUS:
        unreachable = [
            q for q in sorted(c.states())
            if not mu.decide_coverable(c, mu.state_target(c, q))
        ]
        if not unreachable:
            continue
        for caps in (mu.ExplorationLimits(2_000, 50, 3), mu.ExplorationLimits(20_000, 100, 5)):
            states = mu.reachable_states(c, caps, Mode.TICK)
            assert not (states & set(unreachable))
        checked += len(unreachable)
        if checked > 20:
            break
    assert checked > 0


def test_mode_transfer_tick_vs_tickplus_states():
    for c in CORPUS[:40]:
        tick = mu.reachable_states(c, LIMITS, Mode.TICK)
        tickplus = mu.reachable_states(c, LIMITS, Mode.TICK_PLUS)
        assert tick == tickplus


def test_decide_coverable_agrees_with_reference_fixpoint():
    verdicts = []
    for c in _differential_corpus():
        for target in all_clause_targets(c):
            got = mu.decide_coverable(c, target)
            assert got == reference_decide_coverable(c, target), mu.render(c)
            verdicts.append(got)
    assert (len(verdicts), verdicts.count(False)) == (2016, 1498)


def _tail_contracts():
    """The roadmap's tail recipe at m = 24 and 36, seeds 0-11."""
    for m in (24, 36):
        for seed in range(12):
            rng = random.Random(seed)
            yield random_di_contract(rng, max_states=max(2, m // 4), max_clauses=m, max_events=m)


def test_unreachable_clauses_agrees_with_reference_engine():
    verdicts = []
    for c in [*_differential_corpus(), *_tail_contracts()]:
        got = {clause: v.status == "reachable" for clause, v in mu.unreachable_clauses(c).items()}
        assert got == reference_unreachable_clauses(c), mu.render(c)
        verdicts += got.values()
    assert (len(verdicts), verdicts.count(False)) == (2432, 1903)


STATS_SCRIPT = """
import json, random, sys
sys.path.insert(0, sys.argv[1])
from helpers import random_di_contract
from mustipula import reachability

engines = []

class Recording(reachability._Backward):
    def __init__(self, contract):
        super().__init__(contract)
        engines.append(self)

reachability._Backward = Recording
rng = random.Random(7)
out = []
for _ in range(5):
    contract = random_di_contract(rng, max_states=8, max_clauses=16, max_events=8)
    verdicts = reachability.unreachable_clauses(contract)
    out.append([sorted((k.text(), v.status) for k, v in verdicts.items()), engines[-1].stats])
print(json.dumps(out))
"""


def test_backward_work_does_not_depend_on_the_hash_seed():
    runs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": str(TESTS.parent / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", STATS_SCRIPT, str(TESTS)],
            env=env, stdout=subprocess.PIPE, text=True, check=True, timeout=120,
        )
        runs.append(json.loads(proc.stdout))
    assert runs[0] == runs[1]
    assert all(stats["expansions"] > 0 for _, stats in runs[0])
    assert sum(stats["subsumption_checks"] for _, stats in runs[0]) > 0
    assert sum(stats["skipped"] for _, stats in runs[0]) > 0


def test_unreachable_clauses_agrees_with_per_clause_decisions():
    for c in _differential_corpus():
        want = {}
        for fn in c.functions:
            want[ClauseId.of_function(fn)] = mu.decide_coverable(c, mu.state_target(c, fn.source))
        for ev in c.events():
            want[ClauseId.of_event(ev)] = mu.decide_coverable(c, mu.event_target(c, ev.line))
        got = mu.unreachable_clauses(c)
        assert list(got) == list(want)
        assert {clause: v.status for clause, v in got.items()} == {
            clause: "reachable" if ok else "unreachable" for clause, ok in want.items()
        }, mu.render(c)


def _event(offset, source, target, line):
    return EventDecl(TimeExpr(offset), source, target, line)


def _line_clashes():
    """Unvalidated contracts whose two distinct events share line 3."""
    # DI: `g` never runs, so its event `E0 ev_3 F2` is unreachable.
    yield Contract("DiClash", "F0", (
        FunctionDecl("F0", "f", (_event(0, "E0", "F1", 3),), "E0"),
        FunctionDecl("G", "g", (_event(0, "E0", "F2", 3),), "E0"),
    ))
    # Not DI: `A ev_3 B` and `A ev_3 C` both fire after `f`.
    yield Contract("Clash", "A", (
        FunctionDecl("A", "f", (_event(0, "A", "B", 3), _event(0, "A", "C", 3)), "A"),
        FunctionDecl("B", "k", (), "A"),
    ))


@pytest.mark.parametrize("contract", list(_line_clashes()), ids=lambda c: c.name)
def test_unreachable_clauses_rejects_clashing_line_codes(contract):
    # Verdicts are keyed by line-code, so a clash would give one event the
    # verdict of the other.
    with pytest.raises(InvalidContractError, match="duplicate event line-code 3"):
        mu.unreachable_clauses(contract, LIMITS)
    # Nor can a line-code lookup pick one of the two.
    with pytest.raises(InvalidContractError, match="duplicate event line-code 3"):
        mu.event_target(contract, 3)
    with pytest.raises(InvalidContractError, match="duplicate event line-code 3"):
        mu.decide_coverable(contract, mu.state_target(contract, contract.init))


def _corner_contracts():
    """Unvalidated contracts for the packed engine's corner cases."""
    # Four events firable at once after `f`: two distinct events share line
    # 3, and `ev:10` sorts before `ev:9`.  The empty-body call `g` and the
    # event on line 20 both install the continuation `-- => B`.
    yield Contract("Clash", "A", (
        FunctionDecl("A", "f", (
            _event(0, "A", "B", 3), _event(0, "A", "C", 3),
            _event(0, "A", "D", 9), _event(0, "A", "E", 10),
        ), "A"),
        FunctionDecl("A", "g", (), "B"),
        FunctionDecl("B", "k", (_event(0, "A", "B", 20),), "A"),
        FunctionDecl("C", "k", (), "A"),
    ))
    # `p` piles up copies of one pending event; `big`'s event never comes due.
    yield Contract("Copies", "B", (
        FunctionDecl("B", "p", (_event(1, "B", "C", 30),), "B"),
        FunctionDecl("C", "big", (_event(1_000_000, "C", "A", 40),), "C"),
        FunctionDecl("C", "back", (), "B"),
    ))
    # `g` installs `-- => B` at clock 0, and the event on line 3, after a
    # tick at C, installs it again at clock 1, so the event's witness ends
    # off its target's clock.
    yield Contract("Reclock", "A", (
        FunctionDecl("A", "f", (_event(1, "A", "B", 3),), "C"),
        FunctionDecl("C", "h", (), "A"),
        FunctionDecl("A", "g", (), "B"),
    ))


def _forward_corpus():
    """PingPong, Sample, the corner-case contracts, the i/ta/d encodings of
    the suite machines and of inc_chain(1..6), and the generated DI
    corpus."""
    machines = list(machine_suite().values()) + [inc_chain(n) for n in range(1, 7)]
    yield pingpong()
    yield sample()
    yield from _corner_contracts()
    for machine in machines:
        for fragment in ("i", "ta", "d"):
            yield mu.encode(machine, fragment)
    yield from di_corpus()


@pytest.mark.parametrize("mode", list(Mode))
def test_forward_engine_agrees_with_reference(mode):
    # The reference is the engine before every step went through
    # `_enabled`/`_take` or the step table.  Each cap stops some of the
    # searches.
    stats = Counter()
    wide = mu.ExplorationLimits(400, 40, 12)
    for contract in _forward_corpus():
        for limits in (wide, mu.ExplorationLimits(400, 2, 4), mu.ExplorationLimits(400, 1, 12)):
            configs, parents, complete, limit_hit = reference_explore(contract, mode, limits)
            exploration, _ = mu.explore(contract, mode, limits)
            assert exploration.configs == configs
            assert exploration.parents == parents
            assert (exploration.complete, exploration.limit_hit) == (complete, limit_hit)
            stats[limit_hit] += 1
            if limits is wide:
                for cfg in configs:
                    assert mu.successors(cfg, mode) == reference_successors(cfg, mode)
        for seed in range(5):
            got = mu.run_random(contract, 60, seed, mode)
            assert mu.trace_json(got) == mu.trace_json(reference_run_random(contract, 60, seed, mode))
    assert set(stats) == {None, "configs", "clock", "psi"}


@pytest.mark.parametrize("mode", list(Mode))
def test_step_table_agrees_with_successors(mode):
    # The recorded edges of every expanded node, in order, are `successors`
    # of its configuration in label-text order, with one edge per distinct
    # firable event however many copies are pending; a tree edge adds its
    # ticks to the clock.  No clock cap binds, and the psi cap turns away
    # only the state changes it must.  Most searches are complete; the rest
    # stop at the configuration cap, and the nodes expanded before it cover
    # every node of the capped search below.  Both encodings of psi take
    # part.
    kinds, stats = Counter(), Counter()
    limits = mu.ExplorationLimits(1000, 10**6, 200)
    for contract in _forward_corpus():
        exploration, _ = mu.explore(contract, mode, limits, record_edges=True)
        kinds[type(exploration.table)] += 1
        stats[exploration.limit_hit] += 1
        assert exploration.pruned["clock"] == 0
        configs, clocks, parents = exploration.configs, exploration.clocks, exploration.parents
        edges = {}
        for node, label, child in exploration.edges:
            edges.setdefault(node, []).append((label, child))
        # The node whose expansion the configuration cap cut short, if any.
        expanded = len(configs) if exploration.complete or exploration.limit_hit == "psi" else max(edges)
        for node in range(expanded):
            cfg = configs[node]
            want = sorted(mu.successors(cfg, mode), key=lambda step: step[0].text())
            want = [(label, (n.state, n.sigma, n.psi)) for label, n in want if len(n.psi) <= limits.max_psi]
            got = edges.get(node, [])
            assert [(label, (configs[c].state, configs[c].sigma, configs[c].psi)) for label, c in got] == want
            events = [label for label, _ in got if label.kind == "event"]
            assert len(events) == (0 if cfg.sigma else len(mu.semantics.firable(cfg.psi, cfg.state)))
            for label, child in got:
                if parents[child] == (node, label):
                    assert clocks[child] == clocks[node] + (label.kind == "tick")
        capped, _ = mu.explore(contract, mode, mu.ExplorationLimits(400, 40, 12))
        checked = {(cfg.state, cfg.sigma, cfg.psi) for cfg in configs[:expanded]}
        assert all((cfg.state, cfg.sigma, cfg.psi) in checked for cfg in capped.configs), contract.name
    assert kinds[StepTable] > 10 and kinds[PackedStepTable] > 10
    assert stats[None] > 200 and stats["psi"] and stats["configs"]


def _encoding_cases():
    """One contract of each kind, and whether its searches pack psi into an
    int: instantaneous (Sample and a DI contract), time-ahead (PingPong),
    mixed delays (the D encoding of inc_chain(3)), and time-ahead with
    `now + 1000000`, whose fields would not fit."""
    copies = next(c for c in _corner_contracts() if c.name == "Copies")
    di = next(c for c in di_corpus() if sum(1 for _ in c.events()) >= 3)
    return [
        (sample(), True), (di, True), (pingpong(), True),
        (mu.encode(inc_chain(3), "d"), False), (copies, False),
    ]


@pytest.mark.parametrize("mode", list(Mode))
def test_step_table_encoding_follows_the_delays(mode):
    # Both encodings search as the reference does, and `size` counts psi.
    limit_sets = (mu.ExplorationLimits(400, 40, 12), mu.ExplorationLimits(400, 2, 4), mu.ExplorationLimits(400, 1, 12))
    for contract, packed in _encoding_cases():
        for limits in limit_sets:
            configs, parents, complete, limit_hit = reference_explore(contract, mode, limits)
            exploration, _ = mu.explore(contract, mode, limits)
            table = exploration.table
            assert isinstance(table, PackedStepTable) == packed, contract.name
            assert isinstance(table.start[2], int) == packed
            assert exploration.configs == configs
            assert exploration.parents == parents
            assert (exploration.complete, exploration.limit_hit) == (complete, limit_hit)
            for key in exploration.packed:
                assert table.size(key[2]) == len(table.decode(key)[2])


def test_step_table_packs_only_counts_below_255():
    # PingPong's bodies hold one event, so a psi cap of 253 keeps every
    # count below 255 and 254 does not; nor does a start of 254 events.
    contract = pingpong()
    start = mu.initial_config(contract)
    assert isinstance(StepTable.for_search(contract, start, Mode.TICK, 253), PackedStepTable)
    assert not isinstance(StepTable.for_search(contract, start, Mode.TICK, 254), PackedStepTable)
    big = Configuration(contract, "Q0", None, PendingSet([PendingEvent(1, 4, "Q1", "Q2")] * 254))
    assert not isinstance(StepTable.for_search(contract, big, Mode.TICK, 12), PackedStepTable)


def test_packed_search_from_a_start_over_the_psi_cap():
    # Every step from a start over the cap is checked against it, not only
    # state changes: its calls keep the start's psi, and a firing or a tick
    # may leave it over the cap.  PingPong and the I encoding of
    # inc_chain(3) pack psi; `Copies` and the D encoding keep it as a tuple.
    # A start whose steps are calls and a tick has them turned away on every
    # run.  A start whose step is a firing holds five events, so its firing
    # leaves four: turned away under cap 3, admitted under cap 4.
    copies = next(c for c in _corner_contracts() if c.name == "Copies")
    chain_i, chain_d = mu.encode(inc_chain(3), "i"), mu.encode(inc_chain(3), "d")
    ev = next(chain_i.events())
    cases = [
        (Configuration(pingpong(), "Q0", None, PendingSet([PendingEvent(1, 4, "Q1", "Q2")] * 5)), True, False),
        (Configuration(chain_i, ev.source, None, PendingSet([PendingEvent(0, ev.line, ev.source, ev.target)] * 5)), True, True),
    ]
    waits, due = PendingEvent(1, 30, "B", "C"), PendingEvent(0, 30, "B", "C")
    cases += [
        (Configuration(copies, "B", None, PendingSet([waits] * 5)), False, False),
        (Configuration(copies, "B", None, PendingSet([due] * 2 + [waits] * 3)), False, True),
    ]
    dec = next(ev for ev in chain_d.events() if ev.source == "_dec1")
    cont = next(ev for ev in chain_d.events() if ev.source == "_cont" and ev.target == "Q1")
    waits, due = PendingEvent(1, dec.line, dec.source, dec.target), PendingEvent(0, cont.line, "_cont", "Q1")
    cases += [
        (Configuration(chain_d, "Q0", None, PendingSet([waits] * 5)), False, False),
        (Configuration(chain_d, "_cont", None, PendingSet([due] * 2 + [waits] * 3)), False, True),
    ]
    for start, packed, fires in cases:
        contract = start.contract
        for mode in Mode:
            for limits in (mu.ExplorationLimits(400, 40, 3), mu.ExplorationLimits(400, 40, 4), mu.ExplorationLimits(400, 1, 4)):
                configs, parents, complete, limit_hit = reference_explore(contract, mode, limits, start)
                exploration, _ = mu.explore(contract, mode, limits, start=start)
                assert isinstance(exploration.table, PackedStepTable) == packed
                assert exploration.configs == configs
                assert exploration.parents == parents
                assert (exploration.complete, exploration.limit_hit) == (complete, limit_hit)
                if not fires or limits.max_psi == 3:
                    assert exploration.pruned["psi"] > 0 and len(configs) == 1
                else:
                    assert len(configs) > 1


def test_explore_from_a_start_agrees_with_reference():
    # Starts with pending events, a continuation, undeclared event shapes
    # and an undeclared state.
    contract = pingpong()
    declared = PendingEvent(1, 4, "Q1", "Q2")
    foreign = PendingEvent(0, 99, "Q0", "Q3")
    starts = [
        Configuration(contract, "Q0", None, PendingSet([declared, declared])),
        Configuration(contract, "Q1", None, PendingSet([declared, PendingEvent(0, 7, "Q3", "Q0")])),
        Configuration(contract, "Q2", Body(PendingSet([declared]), "Q1"), PendingSet([declared])),
        Configuration(contract, "Q0", None, PendingSet([foreign, declared])),
        Configuration(contract, "Z", Body(PendingSet([foreign]), "Q0"), EMPTY_PSI, 5),
    ]
    for mode in Mode:
        for start in starts:
            for limits in (mu.ExplorationLimits(400, 40, 12), mu.ExplorationLimits(400, 3, 3)):
                configs, parents, complete, limit_hit = reference_explore(contract, mode, limits, start)
                exploration, _ = mu.explore(contract, mode, limits, start=start)
                assert exploration.configs == configs
                assert exploration.parents == parents
                assert (exploration.complete, exploration.limit_hit) == (complete, limit_hit)
                # The search's table numbers the declared shapes and its start's.
                own = start.psi + (start.sigma.events if start.sigma else ())
                shapes = {(4, "Q1", "Q2"), (7, "Q3", "Q0")} | {ev[1:] for ev in own}
                assert exploration.table.shapes == sorted(shapes)


def test_explore_keeps_the_ta_chain_search():
    exploration, node = mu.explore(mu.encode(inc_chain(12), "ta"), target_state="QF")
    assert len(exploration.packed) == 17_327 and node == 17_326
    assert max(map(exploration.table.size, [psi for _, _, psi in exploration.packed])) == 32


def _fallback_witnesses(contract, exploration, configs, parents):
    """The fallback's witnesses rebuilt from reference configurations: per
    clause, the tree path to the first edge that fires it, then that edge,
    which keeps its source's clock.  Also counts the witnesses whose last
    configuration was first reached with another clock."""
    want, reclocked = {}, 0
    for node, label, child in exploration.edges:
        if label.kind == "call":
            clause = ClauseId("function", configs[node].state, label.name, configs[child].sigma.target)
        elif label.kind == "event":
            clause = ClauseId.of_event(contract.event_at_line(label.line))
        else:
            continue
        if clause not in want:
            last = dataclasses.replace(configs[child], clock=configs[node].clock)
            want[clause] = reference_path(configs, parents, node) + (TraceStep(label, last),)
            reclocked += last.clock != configs[child].clock
    return want, reclocked


@pytest.mark.parametrize("mode", list(Mode))
def test_paths_and_fallback_witnesses_agree_with_reference(mode):
    # `path` shares decoded nodes and tree links across calls, so neither
    # the order of the calls nor a built `configs` may change a path.
    rng = random.Random(14)
    stats = Counter()
    for contract in _forward_corpus():
        for limits in (mu.ExplorationLimits(400, 40, 12), mu.ExplorationLimits(400, 2, 4)):
            configs, parents, _, _ = reference_explore(contract, mode, limits)
            want = [reference_path(configs, parents, node) for node in range(len(configs))]
            for configs_first in (False, True):
                exploration, _ = mu.explore(contract, mode, limits, record_edges=True)
                if configs_first:
                    assert exploration.configs == configs
                order = list(range(len(configs)))
                rng.shuffle(order)
                for node in order:
                    path = exploration.path(node)
                    assert path == want[node]
                    assert not path or path[-1].config is exploration.config(node)
                for node, cfg in enumerate(exploration.configs):
                    assert cfg is exploration.config(node)
            if contract.name == "Clash" or mu.classify(contract).det_instantaneous:
                continue  # rejected by `validate`, or decided backward
            witnesses, reclocked = _fallback_witnesses(contract, exploration, configs, parents)
            got = {
                clause: verdict.witness.steps
                for clause, verdict in mu.unreachable_clauses(contract, limits, mode).items()
                if verdict.witness is not None
            }
            assert got == witnesses, contract.name
            stats["witnesses"] += len(got)
            stats["reclocked"] += reclocked
    assert stats["witnesses"] > 500 and stats["reclocked"] > 0


@pytest.mark.parametrize("mode", list(Mode))
def test_nodes_decode_alike_in_any_call_order(mode):
    # Each node is its tree parent stepped by the rule on its tree edge, so
    # no order of `config`, `path` and `configs` calls changes a value or a
    # clock.  The last start has a continuation and two copies of one event.
    rng = random.Random(24)
    copies = next(c for c in _corner_contracts() if c.name == "Copies")
    declared = PendingEvent(1, 4, "Q1", "Q2")
    start = Configuration(pingpong(), "Q2", Body(PendingSet([declared]), "Q1"), PendingSet([declared, declared]), 7)
    cases = [(mu.encode(inc_chain(3), fragment), None) for fragment in ("i", "ta", "d")]
    cases += [(pingpong(), None), (copies, None), (start.contract, start)]
    limits = mu.ExplorationLimits(400, 40, 12)
    kinds = Counter()
    for contract, start in cases:
        configs, parents, _, _ = reference_explore(contract, mode, limits, start)
        nodes = range(len(configs))
        for _ in range(3):
            exploration, _ = mu.explore(contract, mode, limits, start=start)
            kinds[type(exploration.table)] += 1
            calls = [("configs", 0)] + [(call, node) for node in nodes for call in ("config", "path")]
            rng.shuffle(calls)
            for call, node in calls:
                if call == "config":
                    cfg = exploration.config(node)
                    assert (cfg, cfg.clock) == (configs[node], configs[node].clock)
                elif call == "path":
                    path = exploration.path(node)
                    want = reference_path(configs, parents, node)
                    assert path == want
                    assert [step.config.clock for step in path] == [step.config.clock for step in want]
                else:
                    assert exploration.configs == configs
            for node, cfg in enumerate(exploration.configs):
                assert cfg is exploration.config(node)
                assert cfg.clock == configs[node].clock
    assert kinds[StepTable] and kinds[PackedStepTable]


# sha256 digests, taken before witnesses shared decoded nodes and tree links,
# of `trace_json` of every `bounded_reach` witness and of the fallback's
# `verdict_payload`s, on the i/ta/d encodings of the suite machines and of
# inc_chain(1..6), in both modes.
WITNESS_DIGESTS = json.loads((TESTS / "witness_digests.json").read_text())


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_witnesses_and_fallback_verdicts_match_the_pinned_digests():
    machines = {**machine_suite(), **{f"inc_chain{n}": inc_chain(n) for n in range(1, 7)}}
    reach, fallback = {}, {}
    for name, machine in machines.items():
        for fragment, limits in ENCODING_LIMITS.items():
            contract = mu.encode(machine, fragment)
            for mode in Mode:
                key = f"{name}/{fragment}/{mode.value}"
                verdict = mu.bounded_reach(contract, machine.final, limits, mode)
                if verdict.status == "reachable":
                    reach[key] = _sha256(mu.trace_json(verdict.witness))
                verdicts = mu.unreachable_clauses(contract, limits, mode)
                payload = [mu.reachability.verdict_payload(c, v) for c, v in verdicts.items()]
                fallback[key] = _sha256(json.dumps(payload, separators=(",", ":")))
    assert reach == WITNESS_DIGESTS["bounded_reach"]
    assert fallback == WITNESS_DIGESTS["unreachable_clauses"]


def test_fallback_witnesses_decode_each_node_once(monkeypatch):
    # Both encodings build each configuration through `Exploration.step`,
    # from its tree parent or, for a witness's last step off the tree, from
    # the edge's source.
    built, kinds = [], set()
    original = Exploration.step

    def counted(self, cfg, label, key, clock):
        built.append(key)
        kinds.add(type(self.table))
        return original(self, cfg, label, key, clock)

    monkeypatch.setattr(Exploration, "step", counted)
    steps = derivations = 0
    for n in (3, 6):
        for fragment in ("i", "ta", "d"):
            built.clear()
            verdicts = mu.unreachable_clauses(mu.encode(inc_chain(n), fragment))
            steps += sum(len(v.witness) for v in verdicts.values() if v.witness is not None)
            assert len(built) == len(set(built))
            derivations += len(built)
    # Building once per witness step took 8,169 derivations.
    assert (steps, derivations) == (8169, 1074)
    assert kinds == {StepTable, PackedStepTable}


def test_a_decoded_search_is_freed_without_the_collector():
    # The CLI pauses the cyclic collector, so the decode caches must not
    # close a reference cycle through the exploration or its table.
    enabled = gc.isenabled()
    gc.disable()
    try:
        exploration, node = mu.explore(mu.encode(inc_chain(3), "d"), target_state="QF")
        exploration.path(node)
        exploration.configs
        table, exploration = weakref.ref(exploration.table), weakref.ref(exploration)
        assert (table(), exploration()) == (None, None)
    finally:
        if enabled:
            gc.enable()
