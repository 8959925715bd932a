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
from typing import List, Tuple, Union


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
        """Write header + rows; ``target`` is a path or a text file object."""
        if isinstance(target, str):
            with open(target, "w", newline="", encoding="utf-8") as fh:
                self.to_csv(fh)
            return
        writer = csv.writer(target)
        writer.writerow(self.columns)
        writer.writerows(self.rows)

    def __len__(self) -> int:
        return len(self.rows)


# ---------------------------------------------------------------------------
# Tokenizer

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<var>\?[A-Za-z_][A-Za-z0-9_]*)
  | (?P<pname>[A-Za-z][A-Za-z0-9_]*:[A-Za-z_][A-Za-z0-9_\-]*)
  | (?P<int>\d+)
  | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|!=|[{}().,<>=])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    column: int


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError("unexpected character %r" % text[pos], line, col)
        kind = m.lastgroup or ""
        chunk = m.group(0)
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


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

    def error(self, message: str) -> QuerySyntaxError:
        tok = self.peek()
        return QuerySyntaxError(message, tok.line, tok.column)

    def expect_word(self, word: str) -> None:
        tok = self.next()
        if tok.kind != "word" or tok.text.lower() != word.lower():
            raise QuerySyntaxError(
                "expected %s, found %r" % (word.upper(), tok.text), tok.line, tok.column
            )

    def expect_op(self, op: str) -> None:
        tok = self.next()
        if tok.kind != "op" or tok.text != op:
            raise QuerySyntaxError(
                "expected %r, found %r" % (op, tok.text or "<eof>"), tok.line, tok.column
            )

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
            raise QuerySyntaxError(
                "expected a ?variable, found %r" % (tok.text or "<eof>"),
                tok.line,
                tok.column,
            )
        return tok.text[1:]

    def parse_term(self) -> Term:
        tok = self.next()
        if tok.kind == "var":
            return Var(tok.text[1:])
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix != "st":
                raise QuerySyntaxError(
                    "unexpected prefix %r in term position" % prefix,
                    tok.line,
                    tok.column,
                )
            return Const(local)
        raise QuerySyntaxError(
            "expected a variable or st: name, found %r" % (tok.text or "<eof>"),
            tok.line,
            tok.column,
        )

    def parse_pname(self, expected: str) -> None:
        tok = self.next()
        if tok.kind != "pname" or tok.text != expected:
            raise QuerySyntaxError(
                "expected %s, found %r" % (expected, tok.text or "<eof>"),
                tok.line,
                tok.column,
            )

    def parse_int(self) -> int:
        tok = self.next()
        if tok.kind != "int":
            raise QuerySyntaxError(
                "expected an integer, found %r" % (tok.text or "<eof>"),
                tok.line,
                tok.column,
            )
        return int(tok.text)

    def parse_query(self) -> PatternQuery:
        self.expect_word("select")
        distinct = False
        if self.word_is("distinct"):
            self.next()
            distinct = True
        projection: List[str] = []
        while self.peek().kind == "var":
            projection.append(self.parse_var())
        if not projection:
            raise self.error("projection must name at least one variable")
        self.expect_word("where")
        self.expect_op("{")
        atoms: List[Atom] = []
        binds: List[SubstringBind] = []
        filters: List[DateCompare] = []
        while not self.accept_op("}"):
            tok = self.peek()
            if tok.kind == "eof":
                raise self.error("unterminated group: missing }")
            if self.word_is("bind"):
                binds.append(self.parse_bind())
            elif self.word_is("filter"):
                filters.append(self.parse_filter())
            else:
                atoms.append(self.parse_atom())
            self.accept_op(".")
        tok = self.peek()
        if tok.kind != "eof":
            raise self.error("trailing content after }")
        query = PatternQuery(projection, distinct, atoms, binds, filters)
        self.validate(query)
        return query

    def parse_atom(self) -> Atom:
        subject = self.parse_term()
        tok = self.next()
        if tok.kind == "word" and tok.text == "a":
            return TypeAtom(subject, self.parse_term())
        if tok.kind == "pname" and tok.text == "rdf:type":
            return TypeAtom(subject, self.parse_term())
        if tok.kind == "pname" and tok.text == "rdfs:subClassOf":
            return SubclassAtom(subject, self.parse_term())
        if tok.kind == "pname":
            prefix, _, local = tok.text.partition(":")
            if prefix != "st":
                raise QuerySyntaxError(
                    "unknown predicate prefix %r" % prefix, tok.line, tok.column
                )
            return RoleAtom(subject, local, self.parse_term())
        raise QuerySyntaxError(
            "expected a predicate, found %r" % (tok.text or "<eof>"),
            tok.line,
            tok.column,
        )

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
            raise QuerySyntaxError(
                "expected a comparison operator, found %r" % (tok.text or "<eof>"),
                tok.line,
                tok.column,
            )
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

    def validate(self, query: PatternQuery) -> None:
        atom_vars = set()
        for atom in query.atoms:
            for term in _atom_terms(atom):
                if isinstance(term, Var):
                    atom_vars.add(term.name)
        available = set(atom_vars)
        for bind in query.binds:
            if bind.source not in available:
                raise QuerySyntaxError(
                    "bind source ?%s appears in no atom or earlier bind" % bind.source,
                    1,
                    1,
                )
            if bind.target in atom_vars:
                raise QuerySyntaxError(
                    "bind target ?%s already bound by an atom" % bind.target, 1, 1
                )
            available.add(bind.target)
        for flt in query.filters:
            for name in (flt.lhs, flt.rhs):
                if name not in available:
                    raise QuerySyntaxError(
                        "filter variable ?%s appears in no atom or bind" % name, 1, 1
                    )
        for name in query.projection:
            if name not in available:
                raise QuerySyntaxError(
                    "projected variable ?%s appears in no atom or bind" % name, 1, 1
                )


def _atom_terms(atom: Atom) -> Tuple[Term, ...]:
    if isinstance(atom, TypeAtom):
        return (atom.subject, atom.concept)
    if isinstance(atom, SubclassAtom):
        return (atom.child, atom.ancestor)
    return (atom.subject, atom.object)


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
