import random

import pytest

import mustipula as mu
from mustipula.errors import DifferentContractsError, NotDIError
from mustipula.semantics import EMPTY_PSI, Body, Configuration, Mode, PendingEvent, PendingSet

from helpers import (
    all_clause_targets,
    chain,
    coverability_fixpoint_pairs,
    di_corpus,
    pingpong,
    psis_upto,
    sample,
    submultisets,
    wf_configs,
    wf_sigmas,
)

CORPUS = di_corpus(60)
LIMITS = mu.ExplorationLimits(50_000, 200, 6)


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


def test_decide_coverable_initial_target_is_trivial():
    for c in CORPUS[:20]:
        assert mu.decide_coverable(c, mu.state_target(c, c.init))


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


def test_bounded_reach_initial_state_gives_empty_witness():
    verdict = mu.bounded_reach(sample(), "Init", LIMITS)
    assert verdict.status == "reachable"
    assert len(verdict.witness) == 0


def test_bounded_reach_witness_clock_rematerialized():
    verdict = mu.bounded_reach(pingpong(), "Q0", LIMITS)
    assert verdict.status == "reachable"
    assert all(
        step.config.clock == sum(1 for s in verdict.witness.steps[: i + 1] if s.label.kind == "tick")
        for i, step in enumerate(verdict.witness.steps)
    )


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        mu.ExplorationLimits(0, 1, 1)


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
