"""Concrete and abstract syntax of contracts.

A contract is a named set of function clauses plus an initial state.  Each
function clause `@Q f { W } => @Q'` carries a body `W` of event declarations
`now + k >> @A => @B`, one per physical source line.  States are implicitly
declared by use; there is no separate state table.

Line-codes: every event declaration is identified by the 1-based physical
line it occupies in the source text, and at most one event may occupy a
line.  Contracts built programmatically get fresh line-codes from
:func:`renumber`, which is the renderer's layout followed by a reparse.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from typing import Iterator

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


@dataclass(frozen=True)
class EventDecl:
    """An event declaration `time >> @source => @target` at a source line."""

    time: TimeExpr
    source: StateName
    target: StateName
    line: int


@dataclass(frozen=True)
class FunctionDecl:
    """A function clause `@source name { body } => @target`."""

    source: StateName
    name: str
    body: tuple[EventDecl, ...]
    target: StateName

    @functools.cached_property
    def lowered(self):
        """The body as the pending multiset an invocation schedules."""
        from .semantics import lower

        return lower(self.body)

    @functools.cached_property
    def call(self):
        """The (Label, Body) pair of invoking this clause: the call label and
        the continuation `lowered => target` it installs."""
        from .semantics import Body, Label

        return Label("call", name=self.name), Body(self.lowered, self.target)


def _group(items, key) -> dict:
    """Items by key, each group in the items' order."""
    out: dict = {}
    for item in items:
        out.setdefault(key(item), []).append(item)
    return {k: tuple(group) for k, group in out.items()}


@dataclass(frozen=True)
class Contract:
    """A contract: name, initial state, and a sequence of function clauses.

    The cached properties below are facts derived from the clauses in one
    pass on first use.  They are stored on the instance and take no part in
    equality or hashing.
    """

    name: str
    init: StateName
    functions: tuple[FunctionDecl, ...]

    @functools.cached_property
    def by_source(self) -> dict[StateName, tuple[FunctionDecl, ...]]:
        """The functions leaving each state, in declaration order."""
        return _group(self.functions, lambda fn: fn.source)

    @functools.cached_property
    def by_target(self) -> dict[StateName, tuple[FunctionDecl, ...]]:
        """The functions entering each state, in declaration order."""
        return _group(self.functions, lambda fn: fn.target)

    @functools.cached_property
    def events_by_target(self) -> dict[StateName, tuple[EventDecl, ...]]:
        """The events entering each state, in declaration order."""
        return _group(self.events(), lambda ev: ev.target)

    @functools.cached_property
    def fragment_set(self):
        """The fragments the contract belongs to (`fragments.classify`)."""
        from . import fragments

        return fragments.classify(self)

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
        return frozenset(ev.source for ev in self.events())

    @functools.cached_property
    def delays(self) -> frozenset[int]:
        """The time offsets of all events."""
        return frozenset(ev.time.offset for ev in self.events())

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


@dataclass(frozen=True)
class ClauseId:
    """Identity of a clause: a function `(source, name, target)` or an event
    `(source, ev_n, target)` with `n` the event's line-code."""

    kind: str  # "function" | "event"
    source: StateName
    label: str
    target: StateName

    def text(self) -> str:
        return f"{self.source} {self.label} {self.target}"

    @classmethod
    def of_function(cls, fn: FunctionDecl) -> "ClauseId":
        return cls("function", fn.source, fn.name, fn.target)

    @classmethod
    def of_event(cls, ev: EventDecl) -> "ClauseId":
        return cls("event", ev.source, f"ev_{ev.line}", ev.target)


def clause_ids(contract: Contract) -> frozenset[ClauseId]:
    """One identity per function and per event declaration."""
    ids = set()
    for fn in contract.functions:
        ids.add(ClauseId.of_function(fn))
        for ev in fn.body:
            ids.add(ClauseId.of_event(ev))
    return frozenset(ids)


def validate(contract: Contract) -> Contract:
    """Check the structural invariants, returning the contract unchanged.

    Raises DuplicateClauseError when two functions share (source, name,
    target) and InvalidContractError when event line-codes clash.
    """
    seen_funs = set()
    for fn in contract.functions:
        key = (fn.source, fn.name, fn.target)
        if key in seen_funs:
            raise DuplicateClauseError(
                f"duplicate function clause {fn.source} {fn.name} {fn.target}"
            )
        seen_funs.add(key)
    seen_lines = set()
    for ev in contract.events():
        if ev.line in seen_lines:
            raise InvalidContractError(f"duplicate event line-code {ev.line}")
        seen_lines.add(ev.line)
    return contract


# ---------------------------------------------------------------------------
# Scanner
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[^\S\n]+)
  | (?P<comment>//[^\n]*)
  | (?P<newline>\n)
  | (?P<arrow>=>)
  | (?P<sched>>>)
  | (?P<at>@)
  | (?P<plus>\+)
  | (?P<lbrace>\{)
  | (?P<rbrace>\})
  | (?P<nat>[0-9]+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # one of the group names above, or "eof"
    text: str
    line: int
    column: int


def _scan(text: str) -> list[_Token]:
    tokens = []
    line, line_start = 1, 0
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise StipulaSyntaxError(
                f"unexpected character {text[pos]!r}", line, pos - line_start + 1
            )
        kind = match.lastgroup
        if kind == "newline":
            line += 1
            line_start = match.end()
        elif kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), line, match.start() - line_start + 1))
        pos = match.end()
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self._tokens = _scan(text)
        self._pos = 0

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _advance(self) -> _Token:
        tok = self._tokens[self._pos]
        if tok.kind != "eof":
            self._pos += 1
        return tok

    def _fail(self, message: str, tok: _Token | None = None):
        tok = tok or self._peek()
        raise StipulaSyntaxError(message, tok.line, tok.column)

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
        close = self._advance()  # rbrace
        if body and close.line == body[-1].line:
            self._fail("expected a line break after an event declaration", close)
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
            offset = int(self._expect("nat", "a natural number").text)
        self._expect("sched", "'>>'")
        source = self._state()
        self._expect("arrow", "'=>'")
        target = self._state()
        nxt = self._peek()
        if nxt.kind != "eof" and nxt.line == lead.line:
            if nxt.kind == "ident" and nxt.text == "now":
                raise MultipleEventsPerLineError(
                    "a source line may contain at most one event", nxt.line, nxt.column
                )
            self._fail("expected a line break after an event declaration", nxt)
        return EventDecl(TimeExpr(offset), source, target, lead.line)


def parse(text: str) -> Contract:
    """Parse contract source text into its AST.

    Line-codes are the physical source lines of the event declarations.
    Raises StipulaSyntaxError (with line/column), MultipleEventsPerLineError,
    or DuplicateClauseError.
    """
    return _Parser(text).contract()


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


def renumber(contract: Contract) -> Contract:
    """Reassign event line-codes to the lines of the canonical rendering.

    Use after programmatic construction, where line-codes may clash.
    """
    return parse(render(contract))
