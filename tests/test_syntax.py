import pathlib
import random

import pytest
from hypothesis import given, strategies as st

import mustipula as mu
from mustipula import syntax
from mustipula.errors import (
    DuplicateClauseError,
    InvalidContractError,
    MultipleEventsPerLineError,
    MuStipulaError,
    StipulaSyntaxError,
)
from mustipula.syntax import ClauseId, Contract, EventDecl, FunctionDecl, TimeExpr

from helpers import CHAIN, EMPTY, PINGPONG, SAMPLE, inc_chain, machine_suite, pingpong, sample

REPO = pathlib.Path(__file__).resolve().parent.parent


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
    assert c.init_ev == {"Go"} and len(f.call[1].events) == 1
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


H = "stipula E {\n  init Q\n"

# Every place the parser reports a syntax error: the source, the error type,
# and the message, line and column it reports.
ERROR_TABLE = [
    ("unexpected character", H + "  %\n}",
     StipulaSyntaxError, "unexpected character '%'", 3, 3),
    ("unexpected character after a parse error", "stipula { init Q\n\t /x",
     StipulaSyntaxError, "unexpected character '/'", 2, 3),
    ("unexpected character after a number too long to convert",
     H + "  @Q f {\n    now + " + "1" * 5000 + " >> @A => @B\n  } => @R\n%",
     StipulaSyntaxError, "unexpected character '%'", 6, 1),
    ("natural number too long to convert",
     H + "  @Q f {\n    now + " + "1" * 5000 + " >> @A => @B\n  } => @R\n}",
     StipulaSyntaxError, "natural number too long (5000 digits)", 4, 11),
    ("keyword stipula", "contract E { init Q }",
     StipulaSyntaxError, "expected keyword 'stipula', found 'contract'", 1, 1),
    ("keyword init", "stipula E {\n  start Q\n}",
     StipulaSyntaxError, "expected keyword 'init', found 'start'", 2, 3),
    ("contract name", "stipula { init Q }",
     StipulaSyntaxError, "expected a contract name, found '{'", 1, 9),
    ("'{' after the contract name", "stipula E init Q }",
     StipulaSyntaxError, "expected '{', found 'init'", 1, 11),
    ("'{' after the function name", H + "  @Q f } => @R\n}",
     StipulaSyntaxError, "expected '{', found '}'", 3, 8),
    ("state name", "stipula X {\n  init\n}",
     StipulaSyntaxError, "expected a state name, found '}'", 3, 1),
    ("'@' starting a clause", H + "  Q f { } => @R\n}",
     StipulaSyntaxError, "expected '@' starting a function clause", 3, 3),
    ("function name", H + "  @Q { } => @R\n}",
     StipulaSyntaxError, "expected a function name, found '{'", 3, 6),
    ("now", H + "  @Q f {\n    later >> @A => @B\n  } => @R\n}",
     StipulaSyntaxError, "expected an event ('now ...'), found 'later'", 4, 5),
    ("natural number", H + "  @Q f {\n    now + x >> @A => @B\n  } => @R\n}",
     StipulaSyntaxError, "expected a natural number, found 'x'", 4, 11),
    (">>", H + "  @Q f {\n    now + 1 @A => @B\n  } => @R\n}",
     StipulaSyntaxError, "expected '>>', found '@'", 4, 13),
    ("'=>' in an event", H + "  @Q f {\n    now >> @A @B\n  } => @R\n}",
     StipulaSyntaxError, "expected '=>', found '@'", 4, 15),
    ("'=>' after a function body", H + "  @Q f { } @R\n}",
     StipulaSyntaxError, "expected '=>', found '@'", 3, 12),
    ("line break after an event", H + "  @Q f { now >> @A => @B } => @R\n}",
     StipulaSyntaxError, "expected a line break after an event declaration", 3, 26),
    ("more input on the last line of a two-line event", H + "  @Q f {\n    now >>\n @A => @B @C\n  } => @R\n}",
     StipulaSyntaxError, "expected an event ('now ...'), found '@'", 5, 11),
    ("two events on one line", H + "  @Q f {\n    now >> @A => @B now >> @C => @D\n  } => @R\n}",
     MultipleEventsPerLineError, "a source line may contain at most one event", 4, 21),
    ("input after contract", "stipula E { init Q } extra",
     StipulaSyntaxError, "unexpected input after contract: 'extra'", 1, 22),
    ("end of input", "stipula X {",
     StipulaSyntaxError, "expected keyword 'init', found end of input", 1, 12),
    ("end of input after a newline", H + "  @Q f {\n",
     StipulaSyntaxError, "expected an event ('now ...'), found end of input", 4, 1),
]


@pytest.mark.parametrize(
    "source, error, message, line, column",
    [row[1:] for row in ERROR_TABLE],
    ids=[row[0] for row in ERROR_TABLE],
)
def test_syntax_error_table(source, error, message, line, column):
    with pytest.raises(error) as err:
        mu.parse(source)
    assert type(err.value) is error
    assert str(err.value) == f"{message} (line {line}, column {column})"
    assert (err.value.line, err.value.column) == (line, column)


def test_truncated_contract_rejected():
    with pytest.raises(StipulaSyntaxError):
        mu.parse("stipula X {")


def test_trailing_junk_rejected():
    with pytest.raises(StipulaSyntaxError):
        mu.parse("stipula E { init Q } extra")


def test_duplicate_function_clause_rejected(monkeypatch):
    src = "stipula E {\n  init Q\n  @Q f { } => @R\n  @Q f { } => @R\n}"
    with pytest.raises(DuplicateClauseError):
        syntax._Parser(src).contract()
    # The fast path matches the text, and its own check rejects it.
    monkeypatch.setattr(syntax, "_Parser", _token_parser_forbidden)
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
def raw_contracts(draw):
    """Contracts whose line-codes are all 0, as programs build them."""
    states = [f"S{i}" for i in range(draw(st.integers(1, 5)))]
    state = st.sampled_from(states)
    funcs = []
    for i in range(draw(st.integers(0, 4))):
        body = tuple(
            EventDecl(TimeExpr(draw(st.integers(0, 3))), draw(state), draw(state), 0)
            for _ in range(draw(st.integers(0, 2)))
        )
        funcs.append(FunctionDecl(draw(state), f"f{i}", body, draw(state)))
    return Contract("C", draw(state), tuple(funcs))


def contracts():
    return raw_contracts().map(mu.renumber)


@given(contracts())
def test_roundtrip_random_contracts(c):
    assert mu.parse(mu.render(c)) == c


@given(contracts())
def test_renumber_idempotent(c):
    assert mu.renumber(c) == c


def specs(contract: Contract) -> list[tuple]:
    """`syntax.lay_out`'s function specs for a contract."""
    return [
        (fn.source, fn.name, [(ev.time.offset, ev.source, ev.target) for ev in fn.body], fn.target)
        for fn in contract.functions
    ]


@given(raw_contracts())
def test_lay_out_numbers_lines_as_the_round_trip_does(raw):
    c = syntax.lay_out(raw.name, raw.init, specs(raw))
    assert c == mu.renumber(raw)
    assert mu.renumber(c) == c
    assert mu.parse(mu.render(c)) == c


@given(contracts(), contracts())
def test_render_injective_on_normalized_contracts(c1, c2):
    if c1 != c2:
        assert mu.render(c1) != mu.render(c2)


# ---------------------------------------------------------------------------
# The regex fast path (`syntax._match`) against the token parser
# ---------------------------------------------------------------------------

# Comments and whitespace wherever the grammar allows them, bare state names,
# keywords used as names, and a newline between `@` and a name.
COMMENTED = """// leading comment
  stipula   Commented// the name
{ init
	@Start   // the initial state

  @ Start open{// opens
      now+0>>@ A=>B    // a bare target
	  now + 12 >> A => @
        B // a state name on the next line
  }=>Open
  @Open close { } // empty
  => @ Start
  @Open now { now >> @init => @stipula
  } => @now
}
// trailing comment"""

# Text the edits insert: tokens, comments holding tokens, keywords that could
# glue onto a neighbouring name, characters the scanner rejects, and a number
# too long for int().
EDIT_SNIPPETS = [
    " ", "\n", "\t", "\u00a0", "\ufeff", "//", "// ", "// @B\n", "/", "@", "@X",
    "now", "now ", "now + 1 >> @A => @B\n", ">>", "=>", ">", "=", "{", "}",
    "} => @R\n", "@Q f {", "+", "0", "42", "1" * 4301, "x", "_y9", "stipula",
    "init", "%", "\u00e9",
]


def _edit(rng: random.Random, text: str) -> str:
    """One random edit: insert, delete or replace a snippet, or duplicate,
    swap or join lines."""
    kind = rng.randrange(6)
    if kind < 3:
        i = rng.randrange(len(text) + 1)
        j = min(len(text), i + rng.randrange(1, 8))
        if kind == 0:
            return text[:i] + rng.choice(EDIT_SNIPPETS) + text[i:]
        if kind == 1:
            return text[:i] + text[j:]
        return text[:i] + rng.choice(EDIT_SNIPPETS) + text[j:]
    lines = text.split("\n")
    a, b = rng.randrange(len(lines)), rng.randrange(len(lines))
    if kind == 3:
        lines.insert(b, lines[a])
    elif kind == 4:
        lines[a], lines[b] = lines[b], lines[a]
    elif a + 1 < len(lines):
        lines[a : a + 2] = [lines[a] + lines[a + 1]]
    return "\n".join(lines)


def edit_corpus(size=2000, seed=20261018) -> list[str]:
    """Seeded inputs, each 1-3 random edits of a valid contract."""
    countdown = mu.parse_minsky((REPO / "contracts" / "countdown.minsky").read_text())
    bases = [
        (REPO / "contracts" / "pingpong.stipula").read_text(),
        (REPO / "contracts" / "sample.stipula").read_text(),
        mu.render(mu.encode(countdown, "d")),
        COMMENTED,
    ]
    rng = random.Random(seed)
    corpus = []
    for _ in range(size):
        text = rng.choice(bases)
        for _ in range(rng.randint(1, 3)):
            text = _edit(rng, text)
        corpus.append(text)
    return corpus


def _outcome(parse, text):
    """The AST, or the error's type, message, line and column."""
    try:
        return parse(text)
    except MuStipulaError as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)


def test_fast_path_agrees_with_token_parser():
    accepted = 0
    for text in edit_corpus():
        expected = _outcome(lambda t: syntax._Parser(t).contract(), text)
        assert _outcome(mu.parse, text) == expected, text
        # Only the token parser's checks after the grammar (`validate`) may
        # reject what the fast path matches.
        grammatical = isinstance(expected, Contract) or expected[0] is DuplicateClauseError
        assert (syntax._match(text) is not None) == grammatical, text
        accepted += grammatical
    assert 300 < accepted < 1700  # the corpus exercises both outcomes


def test_commented_contract_parses():
    c = mu.parse(COMMENTED)
    assert [(f.source, f.name, f.target) for f in c.functions] == [
        ("Start", "open", "Open"), ("Open", "close", "Start"), ("Open", "now", "now"),
    ]
    assert [(e.time.offset, e.source, e.target, e.line) for e in c.events()] == [
        (0, "A", "B", 7), (12, "A", "B", 8), (0, "init", "stipula", 13),
    ]


def _token_parser_forbidden(text):
    raise AssertionError(f"parse fell back to the token parser on:\n{text}")


def readme_contracts() -> list[str]:
    """The contracts in README.md's code blocks."""
    blocks = (REPO / "README.md").read_text(encoding="utf-8").split("```")[1::2]
    return [block for block in map(str.lstrip, blocks) if block.startswith("stipula ")]


def test_fast_path_parses_every_valid_input(monkeypatch):
    """A fast path that fell back on every input would pass every other
    test: here the token parser may not run at all."""
    monkeypatch.setattr(syntax, "_Parser", _token_parser_forbidden)
    machines = [*machine_suite().values(), *(inc_chain(n) for n in (1, 12, 100))]
    for machine in machines:
        for fragment in ("i", "ta", "d"):
            text = mu.render(mu.encode(machine, fragment))
            assert mu.render(mu.parse(text)) == text
    sources = [path.read_text() for path in sorted((REPO / "contracts").glob("*.stipula"))]
    sources += readme_contracts()
    assert len(sources) >= 4
    for text in sources + [PINGPONG, SAMPLE, CHAIN, EMPTY, COMMENTED]:
        mu.parse(text)


@given(contracts())
def test_fast_path_parses_rendered_contracts(c):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "_Parser", _token_parser_forbidden)
        assert mu.parse(mu.render(c)) == c


# ---------------------------------------------------------------------------
# The fast path's pass: comments deleted first, whitespace runs as one `\s*`,
# and each function body read by one `findall` up to its first `}`
# ---------------------------------------------------------------------------

SKIP_BASE = """stipula S {
  init Q0
  @Q0 f {
    now + 1 >> @Q1 => @Q2
    now >> @Q2 => @Q0
  } => @Q1
  @Q2 g { } => @Q0
}
"""

# One character of each kind `\s` matches besides the space and the newline:
# tab, vertical tab, form feed, carriage return, an ASCII separator, NEL,
# no-break space, em space and line separator.  None ends a line for the
# grammar.
WHITESPACE = "\t\x0b\x0c\r\x1c\x85\xa0\u2003\u2028"


# Comment text that would end a body, open one, start another comment, or
# read as a function's tail or a whole event if the comment were not deleted
# first.
JUNK = ["}", "{", "//", "=> @X", "now >> @A => @B"]


def body_comment_inputs() -> list[str]:
    """Valid texts with a comment holding `JUNK` in each place of a body:
    after its `{`, between two events, after the last event and between two
    tokens of one event; and a body made only of comments."""
    out = []
    for junk in JUNK:
        out += [
            SKIP_BASE.replace("@Q0 f {", f"@Q0 f {{ // {junk}"),
            SKIP_BASE.replace("@Q2\n    now", f"@Q2 // {junk}\n    now"),
            SKIP_BASE.replace("@Q2\n    now", f"@Q2\n    // {junk}\n    now"),
            SKIP_BASE.replace("@Q0\n  }", f"@Q0 // {junk}\n  }}"),
            SKIP_BASE.replace("now >> @Q2", f"now >> // {junk}\n      @Q2"),
        ]
    out.append(SKIP_BASE.replace("@Q2 g { }", "@Q2 g { // }\n    // now >> @A => @B\n  }"))
    return out


def skip_inputs() -> list[str]:
    """Valid texts whose tokens are parted by unusual whitespace runs and
    comments."""
    return [
        *body_comment_inputs(),
        *(SKIP_BASE.replace(" ", ws * 3) for ws in WHITESPACE),
        SKIP_BASE.replace(" ", WHITESPACE),
        SKIP_BASE.replace("\n", "\r\n"),
        SKIP_BASE.replace("\n", " // a comment\r\n"),
        SKIP_BASE.replace("\n  ", "//c\n"),  # the next token starts its line
        SKIP_BASE.replace("\n", "// a // b // c\n"),
        SKIP_BASE.replace("\n", "\n//\n// @Q9 x { } => @Q9\n\n"),
        SKIP_BASE.rstrip("\n") + "// at the end",
        SKIP_BASE + "// at the end",
        SKIP_BASE.replace("init Q0", "init" + " " * 200_000 + "Q0"),
        SKIP_BASE.replace("} => @Q1", "}" + " \t\n" * 66_667 + "=> @Q1"),
    ]


def test_skip_runs_parse_on_the_fast_path(monkeypatch):
    token_parser = syntax._Parser
    monkeypatch.setattr(syntax, "_Parser", _token_parser_forbidden)
    for text in skip_inputs():
        assert mu.parse(text) == token_parser(text).contract(), repr(text[:60])


def skip_rejects() -> list[str]:
    """Invalid texts near `skip_inputs`: comments that swallow a token,
    whitespace that does not end a line, and errors after long runs."""
    return [
        SKIP_BASE.rstrip("\n")[:-1] + "// }",
        SKIP_BASE.replace("@Q2 g { }", "@Q2 g { // }"),
        SKIP_BASE.replace("} => @Q1", "// } => @Q1"),
        SKIP_BASE.replace("init Q0", "init // Q0"),
        "stipula S { init // Q0\n}\n",
        SKIP_BASE.replace("now >> @Q2 => @Q0", "now >> // @Q2 => @Q0"),
        SKIP_BASE.replace("init Q0", "init Q0 / /"),
        SKIP_BASE.replace("@Q2\n    now", "@Q2     now"),
        SKIP_BASE.replace("@Q2\n    now", "@Q2\r    now"),
        SKIP_BASE.replace("\n", "\r\n").replace("now >>", "now + >>"),
        SKIP_BASE.replace(" ", WHITESPACE).replace("}\n", "} }\n", 1),
        SKIP_BASE.replace("init Q0", "init" + " " * 200_000 + "Q0 }"),
        SKIP_BASE + " " * 200_000 + "}",
        # A stray token between two events, and a last event followed by a
        # lone `}` line before the function's own `} => @Q1`.
        SKIP_BASE.replace("@Q2\n    now", "@Q2\n    x\n    now"),
        SKIP_BASE.replace("@Q2\n    now", "@Q2\n    >>\n    now"),
        SKIP_BASE.replace("@Q0\n  }", "@Q0\n  }\n  }"),
    ]


def test_skip_rejects_report_the_token_parsers_error():
    for text in skip_rejects():
        assert syntax._match(text) is None, repr(text[:60])
        expected = _outcome(lambda t: syntax._Parser(t).contract(), text)
        assert not isinstance(expected, Contract), repr(text[:60])
        assert _outcome(mu.parse, text) == expected


@given(contracts(), st.data())
def test_fast_path_skips_junk_comments(c, data):
    """A comment on any line, holding tokens a body reader could trip on,
    changes nothing: no line is added, so the line-codes stay."""
    lines = mu.render(c).split("\n")
    for i in range(len(lines)):
        if data.draw(st.booleans()):
            lines[i] += " // " + data.draw(st.sampled_from(JUNK))
    text = data.draw(st.sampled_from(["\n", "\r\n"])).join(lines)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(syntax, "_Parser", _token_parser_forbidden)
        assert mu.parse(text) == c


def test_parse_builds_one_time_expr_per_delay_text(monkeypatch):
    built = []

    def counted(offset):
        built.append(offset)
        return TimeExpr(offset)

    monkeypatch.setattr(syntax, "TimeExpr", counted)
    monkeypatch.setattr(syntax, "_Parser", _token_parser_forbidden)
    text = SKIP_BASE.replace("    now >>", "    now + 1 >> @Q1 => @Q0\n    now + 01 >> @Q1 => @Q0\n    now >>")
    c = mu.parse(text)
    assert built == [1, 1, 0]  # the texts "1", "01" and none
    times = [ev.time for ev in c.events()]
    assert times[0] is times[1] and times[0] is not times[2]
    text = mu.render(mu.encode(inc_chain(12), "d"))
    built.clear()
    delays = {ev.time.offset for ev in mu.parse(text).events()}
    assert sorted(built) == sorted(delays) == [0, 1, 2, 3, 4, 5]
