import random
from collections import Counter

import pytest

import mustipula as mu
from mustipula.errors import DifferentContractsError, NotDIError
from mustipula.semantics import EMPTY_PSI, Body, Configuration, Mode, PendingEvent, PendingSet
from mustipula.syntax import ClauseId

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
    reference_run_random,
    reference_successors,
    sample,
    submultisets,
    wf_configs,
    wf_sigmas,
)

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


def _count_pred_basis(monkeypatch) -> list[Configuration]:
    """Record the target of every pred_basis call the engine makes."""
    calls = []
    original = mu.reachability.pred_basis

    def counted(contract, target):
        calls.append(target)
        return original(contract, target)

    monkeypatch.setattr(mu.reachability, "pred_basis", counted)
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
    calls = _count_pred_basis(monkeypatch)
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
    last = len(exploration.keys) - 1
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
    assert not contract.fragment_set.det_instantaneous
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


def test_unreachable_clauses_sample():
    got = {ci.text(): v.status for ci, v in mu.unreachable_clauses(sample()).items()}
    assert got == {
        "Init f Run": "reachable",
        "Init g Go": "reachable",
        "Go ev_4 End": "unreachable",
    }


def test_unreachable_clauses_expands_each_target_once(monkeypatch):
    calls = _count_pred_basis(monkeypatch)
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
    target = _cfg(c, "Go", psi=PendingSet([inst]))
    l = _cfg(c, "Run", psi=PendingSet([inst]))
    m = _cfg(c, "Run", sigma=Body(EMPTY_PSI, "Go"))
    s = _cfg(c, "Run")
    graph = {target: [m, l], m: [s], l: [], s: []}
    calls = []

    def fake(contract, cfg):
        calls.append(cfg)
        return graph[cfg]

    monkeypatch.setattr(mu.reachability, "pred_basis", fake)
    assert not mu.decide_coverable(c, target)
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


def _forward_corpus():
    """PingPong, Sample, the i/ta/d encodings of the suite machines and of
    inc_chain(1..6), and the generated DI corpus."""
    machines = list(machine_suite().values()) + [inc_chain(n) for n in range(1, 7)]
    yield pingpong()
    yield sample()
    for machine in machines:
        for fragment in ("i", "ta", "d"):
            yield mu.encode(machine, fragment)
    yield from di_corpus()


@pytest.mark.parametrize("mode", list(Mode))
def test_forward_engine_agrees_with_reference(mode):
    # The reference is the engine before every step went through
    # `semantics.moves`.  Each cap stops some of the searches.
    stats = Counter()
    wide = mu.ExplorationLimits(400, 40, 12)
    for contract in _forward_corpus():
        for limits in (wide, mu.ExplorationLimits(400, 2, 4), mu.ExplorationLimits(400, 1, 12)):
            configs, parents, complete, limit_hit = reference_explore(contract, mode, limits)
            exploration, _ = mu.explore(contract, mode, limits)
            assert exploration.keys == [(c.state, c.sigma, c.psi) for c in configs]
            assert exploration.clocks == [c.clock for c in configs]
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
