"""Pattern-query dialect: parsing, AST and result sets.

The dialect covers exactly the constructs the anomaly queries need:

* ``SELECT [DISTINCT] ?v ... WHERE { ... }``
* type atoms        ``?x a st:Concept .`` / ``?x rdf:type ?cls .``
* subclass atoms    ``?cls rdfs:subClassOf st:Concept .``
* role atoms        ``?x st:role ?y .`` with variables or nominal constants
  (individual ids prefixed ``st:``) on either side
* substring binds   ``BIND( fn:substring(?src, start, len) AS ?out ) .``
* date filters      ``FILTER ( xsd:date(?a) > xsd:date(?b) ) .``

Trailing dots after clauses are optional. Keywords are case-insensitive.
Concept, role and individual names are resolved against the graph schema at
evaluation time, not here; the parser only reports structural problems, with
line and column.
"""

import csv
import re
from dataclasses import dataclass, field, replace
from typing import List, NamedTuple, Optional, Tuple, Union

from .atomicfile import atomic_write


class QuerySyntaxError(ValueError):
    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return "?" + self.name


@dataclass(frozen=True)
class Const:
    """A name from the ``st:`` namespace: concept, role or individual."""

    name: str

    def __str__(self) -> str:
        return "st:" + self.name


Term = Union[Var, Const]


@dataclass(frozen=True)
class TypeAtom:
    subject: Term
    concept: Term


@dataclass(frozen=True)
class SubclassAtom:
    child: Term
    ancestor: Term


@dataclass(frozen=True)
class RoleAtom:
    subject: Term
    role: str
    object: Term


Atom = Union[TypeAtom, SubclassAtom, RoleAtom]


def atom_ends(atom: Atom) -> Tuple[Term, Term]:
    """The atom's two ends, left then right, read as one binary relation:
    (individual, concept) for a type atom, (concept, ancestor concept) for
    a subclass atom, (subject, object) for a role atom."""
    if isinstance(atom, TypeAtom):
        return atom.subject, atom.concept
    if isinstance(atom, SubclassAtom):
        return atom.child, atom.ancestor
    return atom.subject, atom.object


@dataclass(frozen=True)
class SubstringBind:
    source: str
    start: int
    length: int
    target: str


COMPARE_OPS = ("<", ">", "<=", ">=", "=")


@dataclass(frozen=True)
class DateCompare:
    lhs: str
    op: str
    rhs: str


@dataclass
class PatternQuery:
    projection: List[str]
    distinct: bool
    atoms: List[Atom]
    binds: List[SubstringBind] = field(default_factory=list)
    filters: List[DateCompare] = field(default_factory=list)


@dataclass
class ResultSet:
    columns: List[str]
    rows: List[Tuple[str, ...]]

    def to_csv(self, target) -> None:
        """Write header + rows; ``target`` is a path, replaced atomically, or
        a text file object."""
        if isinstance(target, str):
            with atomic_write(target, newline="") as fh:
                self.to_csv(fh)
            return
        writer = csv.writer(target)
        writer.writerow(self.columns)
        writer.writerows(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Tokenizer

# One match per token: the whitespace and comments before a token are
# skipped inside the match. After them comes a token, the end of the text
# or any other character, so every position matches.
_TOKEN_RE = re.compile(
    r"""
    (?:\s+|\#[^\n]*)*
    (?:
        (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
      | (?P<pname>[A-Za-z][A-Za-z0-9_]*:[A-Za-z_][A-Za-z0-9_\-]*)
      | (?P<int>\d+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><=|>=|!=|[{}().,<>=])
      | (?P<eof>\Z)
      | (?P<bad>.)
    )
    """,
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    """The tokens of ``text``, the end token last, each at the line and
    column it starts on; a line ends at each "\\n" only."""
    tokens: List[_Token] = []
    line, line_start, pos = 1, 0, 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        start = m.start(kind)
        # only the skipped part can hold a line end: no token spans one
        newlines = text.count("\n", pos, start)
        if newlines:
            line += newlines
            line_start = text.rindex("\n", pos, start) + 1
        column = start - line_start + 1
        if kind == "bad":
            raise QuerySyntaxError("unexpected character %r" % m.group(kind), line, column)
        tokens.append(_Token(kind, m.group(kind), line, column))
        if kind == "eof":
            break
        pos = m.end()
    return tokens


def _expected(what: str, tok: _Token) -> QuerySyntaxError:
    """The error for a token found where ``what`` should stand."""
    return QuerySyntaxError(
        "expected %s, found %r" % (what, tok.text or "<eof>"), tok.line, tok.column
    )


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def error(self, message: str, tok: Optional[_Token] = None) -> QuerySyntaxError:
        """The error for ``message`` at ``tok``, by default the next token."""
        tok = tok or self.peek()
        return QuerySyntaxError(message, tok.line, tok.column)

    def expect_word(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "word" or tok.text.lower() != word.lower():
            raise _expected(word.upper(), tok)

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise _expected(repr(op), tok)

    def accept_op(self, op: str) -> bool:
        tok = self.peek()
        if tok.kind == "op" and tok.text == op:
            self.next()
            return True
        return False

    def word_is(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "word" and tok.text.lower() == word.lower()

    def parse_var(self) -> str:
        tok = self.next()
        if tok.kind != "var":
            raise _expected("a ?variable", tok)
        return tok.text[1:]

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "var":
            return Var(tok.text[1:])
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix != "st":
                raise self.error("unexpected prefix %r in term position" % prefix, tok)
            return Const(local)
        raise _expected("a variable or st: name", tok)

    def parse_pname(self, expected: str) -> None:
        tok = self.next()
        if tok.kind != "pname" or tok.text != expected:
            raise _expected(expected, tok)

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise _expected("an integer", tok)
        return int(tok.text)

    def parse_query(self) -> PatternQuery:
        self.expect_word("select")
        distinct = False
        if self.word_is("distinct"):
            self.next()
            distinct = True
        projected: List[_Token] = []
        while self.peek().kind == "var":
            projected.append(self.next())
        if not projected:
            raise self.error("projection must name at least one variable")
        self.expect_word("where")
        self.expect_op("{")
        atoms: List[Atom] = []
        binds: List[SubstringBind] = []
        filters: List[DateCompare] = []
        # the start token of each bind and filter, where validate reports it
        bind_starts: List[_Token] = []
        filter_starts: List[_Token] = []
        while not self.accept_op("}"):
            tok = self.peek()
            if tok.kind == "eof":
                raise self.error("unterminated group: missing }")
            if self.word_is("bind"):
                binds.append(self.parse_bind())
                bind_starts.append(tok)
            elif self.word_is("filter"):
                filters.append(self.parse_filter())
                filter_starts.append(tok)
            else:
                atoms.append(self.parse_atom())
            self.accept_op(".")
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error("trailing content after }")
        query = PatternQuery([t.text[1:] for t in projected], distinct, atoms, binds, filters)
        self.validate(query, projected, bind_starts, filter_starts)
        return query

    def parse_atom(self) -> Atom:
        subject = self.parse_term()
        tok = self.next()
        if (tok.kind, tok.text) in (("word", "a"), ("pname", "rdf:type")):
            return TypeAtom(subject, self.parse_term())
        if tok.kind == "pname" and tok.text == "rdfs:subClassOf":
            return SubclassAtom(subject, self.parse_term())
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix != "st":
                raise self.error("unknown predicate prefix %r" % prefix, tok)
            return RoleAtom(subject, local, self.parse_term())
        raise _expected("a predicate", tok)

    def parse_bind(self) -> SubstringBind:
        self.expect_word("bind")
        self.expect_op("(")
        self.parse_pname("fn:substring")
        self.expect_op("(")
        source = self.parse_var()
        self.expect_op(",")
        start = self.parse_int()
        self.expect_op(",")
        length = self.parse_int()
        self.expect_op(")")
        self.expect_word("as")
        target = self.parse_var()
        self.expect_op(")")
        return SubstringBind(source, start, length, target)

    def parse_filter(self) -> DateCompare:
        self.expect_word("filter")
        self.expect_op("(")
        lhs = self.parse_date_operand()
        tok = self.next()
        if tok.kind != "op" or tok.text not in COMPARE_OPS:
            raise _expected("a comparison operator", tok)
        op = tok.text
        rhs = self.parse_date_operand()
        self.expect_op(")")
        return DateCompare(lhs, op, rhs)

    def parse_date_operand(self) -> str:
        self.parse_pname("xsd:date")
        self.expect_op("(")
        var = self.parse_var()
        self.expect_op(")")
        return var

    def validate(
        self,
        query: PatternQuery,
        projected: List[_Token],
        bind_starts: List[_Token],
        filter_starts: List[_Token],
    ) -> None:
        """Check the variables that binds, filters and the projection read;
        an error is reported at its clause's start token."""
        atom_vars = set()
        for atom in query.atoms:
            for term in atom_ends(atom):
                if isinstance(term, Var):
                    atom_vars.add(term.name)
        available = set(atom_vars)
        for bind, tok in zip(query.binds, bind_starts):
            if bind.source not in available:
                raise self.error(
                    "bind source ?%s appears in no atom or earlier bind" % bind.source, tok
                )
            if bind.target in available:
                by = "an atom" if bind.target in atom_vars else "an earlier bind"
                raise self.error("bind target ?%s already bound by %s" % (bind.target, by), tok)
            available.add(bind.target)
        for flt, tok in zip(query.filters, filter_starts):
            for name in (flt.lhs, flt.rhs):
                if name not in available:
                    raise self.error("filter variable ?%s appears in no atom or bind" % name, tok)
        for name, tok in zip(query.projection, projected):
            if name not in available:
                raise self.error("projected variable ?%s appears in no atom or bind" % name, tok)


def parse_query(text: str) -> PatternQuery:
    """Parse query text into a PatternQuery; raises QuerySyntaxError."""
    return _Parser(text).parse_query()


def substitute_nominals(query: PatternQuery, mapping: dict) -> PatternQuery:
    """Rewrite Const terms by name, e.g. {"port1": "port_shangai_cn"}.

    Used to instantiate shipped query templates with concrete port
    individuals. A ``Var`` value turns the placeholder into that variable
    instead, a parameter the engine binds per evaluation pass.
    """

    def sub(term: Term) -> Term:
        if isinstance(term, Const) and term.name in mapping:
            value = mapping[term.name]
            return value if isinstance(value, Var) else Const(value)
        return term

    atoms: List[Atom] = []
    for atom in query.atoms:
        if isinstance(atom, TypeAtom):
            atoms.append(TypeAtom(sub(atom.subject), sub(atom.concept)))
        elif isinstance(atom, SubclassAtom):
            atoms.append(SubclassAtom(sub(atom.child), sub(atom.ancestor)))
        else:
            atoms.append(RoleAtom(sub(atom.subject), atom.role, sub(atom.object)))
    return replace(query, atoms=atoms)
