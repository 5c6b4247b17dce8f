"""Concrete and abstract syntax of contracts.

A contract is a named set of function clauses plus an initial state.  Each
function clause `@Q f { W } => @Q'` carries a body `W` of event declarations
`now + k >> @A => @B`, one per physical source line.  States are implicitly
declared by use; there is no separate state table.

Line-codes: every event declaration is identified by the 1-based physical
line it occupies in the source text, and at most one event may occupy a
line.  Contracts built programmatically get fresh line-codes from
:func:`lay_out`, the renderer's layout, or :func:`renumber`, a reparse.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import (
    DuplicateClauseError,
    InvalidContractError,
    MultipleEventsPerLineError,
    StipulaSyntaxError,
)

# States and function names are plain identifier strings.
StateName = str


@dataclass(frozen=True)
class TimeExpr:
    """A time expression `now + k`; `now` alone means k = 0."""

    offset: int

    def __post_init__(self):
        if self.offset < 0:
            raise InvalidContractError("time offset must be a natural number")

    def render(self) -> str:
        return "now" if self.offset == 0 else f"now + {self.offset}"


@dataclass(frozen=True, slots=True, init=False)
class EventDecl:
    """An event declaration `time >> @source => @target` at a source line."""

    time: TimeExpr
    source: StateName
    target: StateName
    line: int

    def __init__(self, time, source, target, line):
        # A frozen instance is filled through its slots' descriptors, at
        # about half the cost of the generated `object.__setattr__` calls.
        _set_time(self, time)
        _set_source(self, source)
        _set_target(self, target)
        _set_line(self, line)


_set_time, _set_source, _set_target, _set_line = (
    EventDecl.__dict__[name].__set__ for name in ("time", "source", "target", "line")
)


@dataclass(frozen=True)
class FunctionDecl:
    """A function clause `@source name { body } => @target`."""

    source: StateName
    name: str
    body: tuple[EventDecl, ...]
    target: StateName

    @functools.cached_property
    def call(self):
        """The (Label, Body) pair of invoking this clause: the call label and
        the continuation `lower(body) => target` it installs."""
        from .semantics import Body, Label, lower

        return Label("call", name=self.name), Body(lower(self.body), self.target)


@dataclass(frozen=True)
class Contract:
    """A contract: name, initial state, and a sequence of function clauses.

    The cached properties below are facts derived from the clauses in one
    pass on first use, except `memo`, which starts empty.  They are stored
    on the instance and take no part in equality or hashing.
    """

    name: str
    init: StateName
    functions: tuple[FunctionDecl, ...]

    @functools.cached_property
    def by_source(self) -> dict[StateName, tuple[FunctionDecl, ...]]:
        """The functions leaving each state, in declaration order."""
        out: dict = {}
        for fn in self.functions:
            out.setdefault(fn.source, []).append(fn)
        return {state: tuple(fns) for state, fns in out.items()}

    @functools.cached_property
    def events_by_line(self) -> dict[int, EventDecl]:
        """Each line-code's event; the first declaration wins a clash."""
        out: dict[int, EventDecl] = {}
        for ev in self.events():
            out.setdefault(ev.line, ev)
        return out

    @functools.cached_property
    def init_ev(self) -> frozenset[StateName]:
        """InitEv: the source states of all events."""
        return frozenset([ev.source for fn in self.functions for ev in fn.body])

    @functools.cached_property
    def memo(self) -> dict:
        """Scratch space that `semantics` lays out and fills as its walks
        need it."""
        return {}

    def events(self) -> Iterator[EventDecl]:
        """All event declarations, in declaration order."""
        for fn in self.functions:
            yield from fn.body

    def states(self) -> frozenset[StateName]:
        """Every state mentioned anywhere in the contract."""
        out = {self.init}
        for fn in self.functions:
            out.add(fn.source)
            out.add(fn.target)
            for ev in fn.body:
                out.add(ev.source)
                out.add(ev.target)
        return frozenset(out)

    def event_at_line(self, line: int) -> EventDecl | None:
        return self.events_by_line.get(line)


@dataclass(frozen=True, slots=True, init=False)
class ClauseId:
    """Identity of a clause: a function `(source, name, target)` or an event
    `(source, ev_n, target)` with `n` the event's line-code."""

    kind: str  # "function" | "event"
    source: StateName
    label: str
    target: StateName

    # Filled through the slots' descriptors, as EventDecl is: the per-clause
    # analyses build one per clause.
    def __init__(self, kind, source, label, target):
        _set_kind(self, kind)
        _set_clause_source(self, source)
        _set_label(self, label)
        _set_clause_target(self, target)

    def text(self) -> str:
        return f"{self.source} {self.label} {self.target}"

    @classmethod
    def of_function(cls, fn: FunctionDecl) -> "ClauseId":
        return cls("function", fn.source, fn.name, fn.target)

    @classmethod
    def of_event(cls, ev: EventDecl) -> "ClauseId":
        return cls("event", ev.source, f"ev_{ev.line}", ev.target)


_set_kind, _set_clause_source, _set_label, _set_clause_target = (
    ClauseId.__dict__[name].__set__ for name in ("kind", "source", "label", "target")
)


def clause_ids(contract: Contract) -> frozenset[ClauseId]:
    """One identity per function and per event declaration."""
    ids = set()
    for fn in contract.functions:
        ids.add(ClauseId.of_function(fn))
        for ev in fn.body:
            ids.add(ClauseId.of_event(ev))
    return frozenset(ids)


def _check_functions(contract: Contract) -> Contract:
    """Raise DuplicateClauseError when two functions share (source, name,
    target); else return the contract."""
    seen_funs = set()
    for fn in contract.functions:
        key = (fn.source, fn.name, fn.target)
        if key in seen_funs:
            raise DuplicateClauseError(
                f"duplicate function clause {fn.source} {fn.name} {fn.target}"
            )
        seen_funs.add(key)
    return contract


def validate(contract: Contract) -> Contract:
    """Check the structural invariants, returning the contract unchanged.

    Raises DuplicateClauseError when two functions share (source, name,
    target) and InvalidContractError when event line-codes clash.
    """
    _check_functions(contract)
    seen_lines = set()
    for ev in contract.events():
        if ev.line in seen_lines:
            raise InvalidContractError(f"duplicate event line-code {ev.line}")
        seen_lines.add(ev.line)
    return contract


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

# Whitespace matches no alternative, so `finditer` skips it, and a comment
# matches without a named group.  `bad` catches any other character.
_TOKEN_RE = re.compile(
    r"""
    //[^\n]*
  | (?P<arrow>=>)
  | (?P<sched>>>)
  | (?P<at>@)
  | (?P<plus>\+)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<nat>[0-9]+)
  | (?P<ident>"""
    + IDENTIFIER.pattern
    + r""")
  | (?P<bad>\S)
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # one of the group names above, or "eof"
    text: str
    start: int  # offset into the source text


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


# `parse` runs the token parser only on text the fast path below rejects: it
# finds and reports the syntax error.  Tests hold the fast path to it.
class _Parser:
    def __init__(self, text: str):
        self._text = text
        matches = _TOKEN_RE.finditer(text)
        self._tokens = [_Token(m.lastgroup, m.group(), m.start()) for m in matches if m.lastgroup]
        self._tokens.append(_Token("eof", "", len(text)))
        self._pos = 0
        self._line, self._line_offset = 1, 0  # the line of offset _line_offset
        bad = next((tok for tok in self._tokens if tok.kind == "bad"), None)
        if bad is not None:
            self._fail(f"unexpected character {bad.text!r}", bad)

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, tok: _Token | None = None, error=StipulaSyntaxError):
        tok = tok or self._peek()
        line_start = self._text.rfind("\n", 0, tok.start) + 1
        line = self._text.count("\n", 0, line_start) + 1
        raise error(message, line, tok.start - line_start + 1)

    def _describe(self, tok: _Token) -> str:
        return repr(tok.text) if tok.text else "end of input"

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            self._fail(f"expected {what}, found {self._describe(tok)}")
        return self._advance()

    def _keyword(self, word: str):
        tok = self._peek()
        if tok.kind != "ident" or tok.text != word:
            self._fail(f"expected keyword {word!r}, found {self._describe(tok)}")
        self._advance()

    def _state(self) -> StateName:
        # `@Q` canonically; a bare identifier is tolerated after `init`.
        if self._peek().kind == "at":
            self._advance()
        return self._expect("ident", "a state name").text

    def contract(self) -> Contract:
        self._keyword("stipula")
        name = self._expect("ident", "a contract name").text
        self._expect("lbrace", "'{'")
        self._keyword("init")
        init = self._state()
        functions = []
        while self._peek().kind != "rbrace":
            functions.append(self._function())
        self._advance()  # rbrace
        tok = self._peek()
        if tok.kind != "eof":
            self._fail(f"unexpected input after contract: {tok.text!r}")
        return validate(Contract(name, init, tuple(functions)))

    def _function(self) -> FunctionDecl:
        if self._peek().kind != "at":
            self._fail("expected '@' starting a function clause")
        source = self._state()
        fname = self._expect("ident", "a function name").text
        self._expect("lbrace", "'{'")
        body = []
        while self._peek().kind != "rbrace":
            body.append(self._event())
        self._advance()  # rbrace
        self._expect("arrow", "'=>'")
        target = self._state()
        return FunctionDecl(source, fname, tuple(body), target)

    def _event(self) -> EventDecl:
        lead = self._peek()
        if lead.kind != "ident" or lead.text != "now":
            self._fail(f"expected an event ('now ...'), found {self._describe(lead)}")
        self._advance()
        offset = 0
        if self._peek().kind == "plus":
            self._advance()
            nat = self._expect("nat", "a natural number")
            try:
                offset = int(nat.text)
            except ValueError:  # past the interpreter's int conversion limit
                self._fail(f"natural number too long ({len(nat.text)} digits)", nat)
        self._expect("sched", "'>>'")
        source = self._state()
        self._expect("arrow", "'=>'")
        target = self._state()
        nxt = self._peek()
        if nxt.kind != "eof" and self._text.find("\n", lead.start, nxt.start) < 0:
            if nxt.kind == "ident" and nxt.text == "now":
                self._fail(
                    "a source line may contain at most one event",
                    nxt,
                    MultipleEventsPerLineError,
                )
            self._fail("expected a line break after an event declaration", nxt)
        # Events come in source order, so the line count only moves forward.
        self._line += self._text.count("\n", self._line_offset, lead.start)
        self._line_offset = lead.start
        return EventDecl(TimeExpr(offset), source, target, self._line)


# ---------------------------------------------------------------------------
# Fast path: comments deleted, then one regex match per production and one
# `findall` per function body
# ---------------------------------------------------------------------------

# No token contains `/`, so the scanner reads every `//` outside a comment as
# the start of one that runs to its newline.  Deleting that text keeps every
# newline, so token boundaries and line-codes do not move.
_COMMENT_RE = re.compile(r"//[^\n]*")
# Each production starts at a token and ends with the whitespace before the
# next one.  No token starts with whitespace, so backtracking into the run
# never makes a match.
_SKIP = r"\s*"
# A keyword or identifier ends where the scanner's identifier token ends.
_END_OF_WORD = r"(?![A-Za-z0-9_])"
_NAME = "(" + IDENTIFIER.pattern + ")" + _END_OF_WORD + _SKIP
_STATE = "(?:@" + _SKIP + ")?" + _NAME

_HEADER_RE = re.compile(
    _SKIP + "stipula" + _END_OF_WORD + _SKIP + _NAME + r"\{" + _SKIP
    + "init" + _END_OF_WORD + _SKIP + _STATE
)
_FUNCTION_RE = re.compile("@" + _SKIP + _NAME + _NAME + r"\{" + _SKIP)
# Group 1 is the event's whole text, the whitespace after it included.
_EVENT_RE = re.compile(
    "(now" + _END_OF_WORD + _SKIP + r"(?:\+" + _SKIP + "([0-9]+)" + _SKIP + ")?"
    + ">>" + _SKIP + _STATE + "=>" + _SKIP + _STATE + ")"
)
_TAIL_RE = re.compile(r"\}" + _SKIP + "=>" + _SKIP + _STATE)
_END_RE = re.compile(r"\}" + _SKIP + r"\Z")


def _match(text: str) -> Contract | None:
    """The contract `_Parser` would build, before `validate`, or None where
    a production fails to match or a number is too long for `int()`: the
    token parser then decides, and reports the error."""
    if "//" in text:
        text = _COMMENT_RE.sub("", text)
    m = _HEADER_RE.match(text)
    if m is None:
        return None
    name, init = m.groups()
    pos = m.end()
    functions = []
    line, line_offset = 1, 0  # the line of offset line_offset
    times: dict[str, TimeExpr] = {}  # one per delay text
    while (m := _FUNCTION_RE.match(text, pos)) is not None:
        source, fname = m.groups()
        pos = m.end()
        # No event contains `}`, so the body ends at the first one.
        end = text.find("}", pos)
        if end < 0:
            return None
        line += text.count("\n", line_offset, pos)
        body = []
        for event, delay, ev_source, ev_target in _EVENT_RE.findall(text, pos, end):
            breaks = event.count("\n")
            if not breaks:  # the event must end its line
                return None
            time = times.get(delay)
            if time is None:
                try:
                    time = times[delay] = TimeExpr(int(delay) if delay else 0)
                except ValueError:  # past the interpreter's int conversion limit
                    return None
            body.append(EventDecl(time, ev_source, ev_target, line))
            line += breaks
            pos += len(event)
        line_offset = pos
        # The body's `}` is at `pos` only if its events tile the body.
        m = _TAIL_RE.match(text, pos)
        if m is None:
            return None
        pos = m.end()
        functions.append(FunctionDecl(source, fname, tuple(body), m.group(1)))
    if _END_RE.match(text, pos) is None:
        return None
    return Contract(name, init, tuple(functions))


def parse(text: str) -> Contract:
    """Parse contract source text into its AST.

    Line-codes are the physical source lines of the event declarations.
    Raises StipulaSyntaxError (with line/column), MultipleEventsPerLineError,
    or DuplicateClauseError.  Valid text is parsed by `_match`; text it
    rejects goes to `_Parser`, which finds and reports the error.  `_match`
    gives each event a line-code greater than the one before, so of
    `validate`'s checks only the one for duplicate functions can fail on
    its result.
    """
    contract = _match(text)
    if contract is None:
        return _Parser(text).contract()
    return _check_functions(contract)


# ---------------------------------------------------------------------------
# Renderer
# ---------------------------------------------------------------------------


def render(contract: Contract) -> str:
    """Canonical source text for a contract.

    The layout is a fixed point of parse/render: reparsing the output and
    rendering again is byte-identical, and the reparsed AST equals the input
    up to line-code renumbering.
    """
    out = [f"stipula {contract.name} {{", f"  init {contract.init}"]
    for fn in contract.functions:
        if not fn.body:
            out.append(f"  @{fn.source} {fn.name} {{ }} => @{fn.target}")
            continue
        out.append(f"  @{fn.source} {fn.name} {{")
        for ev in fn.body:
            out.append(f"    {ev.time.render()} >> @{ev.source} => @{ev.target}")
        out.append(f"  }} => @{fn.target}")
    out.append("}")
    return "\n".join(out) + "\n"


def lay_out(name: str, init: StateName, functions) -> Contract:
    """The contract `renumber` would give, built in one pass without text.

    `functions` holds `(source, name, events, target)` specs, each event an
    `(offset, source, target)` triple.  Each event's line-code is the line
    `render` puts it on, so no two events share one, and equal offsets share
    one TimeExpr.  It does not check for duplicate function clauses.
    """
    times: dict[int, TimeExpr] = {}
    decls, line = [], 3  # line 3 opens the first function
    for source, fname, events, target in functions:
        body = []
        for offset, ev_source, ev_target in events:
            time = times.get(offset)
            if time is None:
                time = times[offset] = TimeExpr(offset)
            line += 1
            body.append(EventDecl(time, ev_source, ev_target, line))
        decls.append(FunctionDecl(source, fname, tuple(body), target))
        line += 2 if body else 1  # past `}` to the next function; or past `{ }`
    return Contract(name, init, tuple(decls))


def renumber(contract: Contract) -> Contract:
    """Reassign event line-codes to the lines of the canonical rendering.

    Use after programmatic construction, where line-codes may clash.
    """
    return parse(render(contract))
