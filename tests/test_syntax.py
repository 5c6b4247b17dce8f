import pytest
from hypothesis import given, strategies as st

import mustipula as mu
from mustipula.errors import (
    DuplicateClauseError,
    InvalidContractError,
    MultipleEventsPerLineError,
    StipulaSyntaxError,
)
from mustipula.syntax import ClauseId, Contract, EventDecl, FunctionDecl, TimeExpr

from helpers import CHAIN, EMPTY, PINGPONG, SAMPLE, pingpong, sample


def test_parse_pingpong():
    c = pingpong()
    assert c.name == "PingPong"
    assert c.init == "Q0"
    assert [(f.source, f.name, f.target) for f in c.functions] == [
        ("Q0", "ping", "Q1"),
        ("Q2", "pong", "Q3"),
    ]
    assert [(e.time.offset, e.line, e.source, e.target) for e in c.events()] == [
        (1, 4, "Q1", "Q2"),
        (2, 7, "Q3", "Q0"),
    ]


def test_parse_empty_contract():
    c = mu.parse("stipula E { init Q }")
    assert c == Contract("E", "Q", ())


def test_parse_sample():
    c = sample()
    f, g = c.functions
    assert f.name == "f" and len(f.body) == 1 and f.body[0].line == 4
    assert g.name == "g" and g.body == ()
    # The cached facts take no part in equality or hashing.
    assert c.by_source == {"Init": (f, g)} and c.events_by_line == {4: f.body[0]}
    assert c.init_ev == {"Go"} and c.delays == {0} and len(f.lowered) == 1
    fresh = sample()
    assert "by_source" in vars(c) and "by_source" not in vars(fresh)
    assert c == fresh and hash(c) == hash(fresh)


def test_parse_accepts_at_prefixed_init():
    assert mu.parse("stipula E { init @Q }").init == "Q"


def test_parse_ignores_comments():
    src = "stipula E { // a contract\n  init Q // initial\n}\n"
    assert mu.parse(src) == Contract("E", "Q", ())


def test_syntax_error_carries_position():
    with pytest.raises(StipulaSyntaxError) as err:
        mu.parse("stipula E {\n  init Q\n  %\n}")
    assert err.value.line == 3
    assert err.value.column == 3


def test_truncated_contract_rejected():
    with pytest.raises(StipulaSyntaxError):
        mu.parse("stipula X {")


def test_trailing_junk_rejected():
    with pytest.raises(StipulaSyntaxError):
        mu.parse("stipula E { init Q } extra")


def test_duplicate_function_clause_rejected():
    src = "stipula E {\n  init Q\n  @Q f { } => @R\n  @Q f { } => @R\n}"
    with pytest.raises(DuplicateClauseError):
        mu.parse(src)


def test_same_name_different_target_allowed():
    src = "stipula E {\n  init Q\n  @Q f { } => @R\n  @Q f { } => @S\n}"
    assert len(mu.parse(src).functions) == 2


def test_two_events_on_one_line_rejected():
    src = "stipula E {\n  init Q\n  @Q f {\n    now >> @A => @B now >> @C => @D\n  } => @R\n}"
    with pytest.raises(MultipleEventsPerLineError):
        mu.parse(src)


def test_event_must_end_its_line():
    src = "stipula E {\n  init Q\n  @Q f { now >> @A => @B } => @R\n}"
    with pytest.raises(StipulaSyntaxError):
        mu.parse(src)


def test_render_empty_contract_golden():
    assert mu.render(Contract("E", "Q", ())) == "stipula E {\n  init Q\n}\n"


def test_render_roundtrip_pingpong():
    c = pingpong()
    assert mu.parse(mu.render(c)) == c


def test_render_fixed_point():
    for src in (PINGPONG, SAMPLE, CHAIN, EMPTY):
        once = mu.render(mu.parse(src))
        assert mu.render(mu.parse(once)) == once


def test_clause_ids_pingpong():
    assert mu.clause_ids(pingpong()) == frozenset(
        {
            ClauseId("function", "Q0", "ping", "Q1"),
            ClauseId("function", "Q2", "pong", "Q3"),
            ClauseId("event", "Q1", "ev_4", "Q2"),
            ClauseId("event", "Q3", "ev_7", "Q0"),
        }
    )


def test_clause_ids_empty_and_sample():
    assert mu.clause_ids(Contract("E", "Q", ())) == frozenset()
    assert {ci.label for ci in mu.clause_ids(sample())} == {"f", "g", "ev_4"}


def test_renumber_assigns_fresh_distinct_lines():
    ev = EventDecl(TimeExpr(0), "A", "B", 0)
    raw = Contract("E", "Q", (FunctionDecl("Q", "f", (ev, ev), "R"),))
    fixed = mu.renumber(raw)
    lines = [e.line for e in fixed.events()]
    assert len(set(lines)) == 2
    mu.validate(fixed)


def test_validate_rejects_clashing_line_codes():
    ev = EventDecl(TimeExpr(0), "A", "B", 7)
    clash = EventDecl(TimeExpr(2), "C", "D", 7)
    raw = Contract("E", "Q", (FunctionDecl("Q", "f", (ev, clash, ev), "R"),))
    assert raw.event_at_line(7) is ev  # the first declaration wins
    with pytest.raises(InvalidContractError):
        mu.validate(raw)


def test_negative_time_offset_rejected():
    with pytest.raises(InvalidContractError):
        TimeExpr(-1)


@st.composite
def contracts(draw):
    states = [f"S{i}" for i in range(draw(st.integers(1, 5)))]
    state = st.sampled_from(states)
    funcs = []
    for i in range(draw(st.integers(0, 4))):
        body = tuple(
            EventDecl(TimeExpr(draw(st.integers(0, 3))), draw(state), draw(state), 0)
            for _ in range(draw(st.integers(0, 2)))
        )
        funcs.append(FunctionDecl(draw(state), f"f{i}", body, draw(state)))
    return mu.renumber(Contract("C", draw(state), tuple(funcs)))


@given(contracts())
def test_roundtrip_random_contracts(c):
    assert mu.parse(mu.render(c)) == c


@given(contracts())
def test_renumber_idempotent(c):
    assert mu.renumber(c) == c


@given(contracts(), contracts())
def test_render_injective_on_normalized_contracts(c1, c2):
    if c1 != c2:
        assert mu.render(c1) != mu.render(c2)
