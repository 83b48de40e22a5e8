"""Scenario DSL: lexer, syntax tree, parser, and pretty-printer.

A scenario is a flat sequence of statements: declarations (rank or generator
layout, constants, words, automorphisms, graphs, graph automorphisms, bases)
followed by assertions and finite-group checks.  Parsing is LL(1) with
longest-match lexing; every diagnostic carries line/column and the expected
token set.  Name resolution, rank bounds and the lower bounds of finite-group
check arguments (a family sl or psl, a size n >= 1, a modulus >= 2, a
prime p) are checked at parse time, so a parsed scenario is internally
consistent.  Sizes are bounded there too: a check may build a table of at
most ``MAX_CHECK_ROWS`` matrix rows (m^n, with m the modulus it works in), a
check whose group is too large within that bound stops at an enumeration
cap, and ``obstruction(n)`` takes n up to ``MAX_OBSTRUCTION_SIZE``.

Syntax-tree nodes are ``typing.NamedTuple`` classes, cheap to build at
import, and two nodes are equal when their fields are equal.  Tuple equality
does not look at the class (``AutName("f") == NoteStmt("f")``), so nodes are
compared only within one class, or among automorphism expressions, whose
classes differ in arity or field types; the one such comparison is the
literal-conjugate test of ``Evaluator.order_of``.  ``AutIdent()`` has no
fields and so is false: code tests a node's class, or compares it with None,
never its truth.

The lexer reads one pattern (:data:`_TOKEN_RE`).  Identifiers are ASCII
letters, digits and underscores, with inner hyphens; an integer is decimal
digits with an optional leading ``-``, where a decimal digit of another script,
such as U+0663, reads as its value; a string ends on its own line; any other
character, a non-ASCII letter or a superscript digit for instance, is an error
at its line and column.

Word and edge-path literals share one rule (:meth:`Parser.parse_atoms`):
``e``, or atoms ``item`` / ``item^k`` with k != 0, as in ``x3 x2^-1``,
writing out at most ``MAX_LITERAL_LETTERS`` letters in all, the bound that
``words.parse_word`` applies too.
Generator layouts let indexed families like ``x(2,1)`` stand for flattened
generator positions, earlier dimensions varying fastest.
"""

from __future__ import annotations

import re
from itertools import product
from math import isqrt, prod
from typing import Callable, NamedTuple, Optional, TypeVar, Union

from .endos import NAMED_KINDS
from .graphs import CONSTRUCTORS, SYMMETRIES, Graph
from .words import MAX_LITERAL_LETTERS

KEYWORDS = {
    "scenario", "rank", "const", "gens", "word", "aut", "graph", "gaut",
    "basis", "assert", "check", "note", "on", "at", "delta", "induced",
    "basepoint", "id", "e", "order", "outorder", "unbounded", "det", "matrix",
    "mod", "level", "torelli", "inner", "witness", "not", "fixes", "maps",
    "to", "elementary", "vertex", "edge", "loop",
} | set(CONSTRUCTORS) | set(SYMMETRIES)

# Named automorphism constructors; also unavailable as user identifiers.
AUT_CONSTRUCTORS = set(NAMED_KINDS)
# Largest product of a graph constructor's arguments (see parse_graph_decl).
MAX_CONSTRUCTOR_SIZE = 10_000
# Most rows m^n in the table of matrix rows a finite-group check builds (see
# parse_check); building 100,000 rows took 0.3 s and 50 MB (``_space(5, 10)``,
# Python 3.11, 2-core x86-64 host).
MAX_CHECK_ROWS = 100_000
# Largest size n of ``check obstruction(n)``, which builds no row table but
# eliminates about n^2/2 equations of n-bit masks: ``split_obstruction(100)``
# took 0.07 s and 17 MB peak RSS, ``split_obstruction(400)`` 5.8 s and 432 MB
# (Python 3.11, 2-core x86-64 host).
MAX_OBSTRUCTION_SIZE = 100

T = TypeVar("T")

# The error for a word or path literal with no atoms, and its expected token.
_MISSING_LITERAL = {
    "word": ("expected a word literal", ("word",)),
    "path": ("expected an edge path", ("edge path",)),
}

PUNCT = (
    "->", "==", "!=", "..", "{", "}", "(", ")", "[", "]",
    "=", ",", ";", "*", "^", "~", "-",
)


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.message = message
        self.line = line
        self.col = col
        self.expected = expected
        loc = f"line {line}, column {col}"
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{loc}: {message}{hint}")


class Token(NamedTuple):
    kind: str  # IDENT INT STRING PUNCT EOF
    value: str
    line: int
    col: int


# Every piece of scenario text, tried in this order at each position.  An
# integer is signed only when a digit follows the "-", so "->" stays one
# token; a hyphen stays inside an identifier only when flanked by word
# characters, so "a -> b" and "x^-1" lex unchanged while "rose-five" is one
# name; punctuation is longest first, so "->" is not "-" then ">".  A
# character that starts none of these is OTHER, an error.
_TOKEN_RE = re.compile("|".join(f"(?P<{kind}>{pattern})" for kind, pattern in (
    ("NEWLINE", r"\n"),
    ("BLANK", r"[ \t\r]+"),
    ("COMMENT", r"#[^\n]*"),
    ("STRING", r'"[^"\n]*"'),
    ("INT", r"-?\d+"),
    ("IDENT", r"[A-Za-z_][A-Za-z0-9_]*(?:-[A-Za-z0-9_]+)*"),
    ("PUNCT", "|".join(map(re.escape, sorted(PUNCT, key=len, reverse=True)))),
    ("OTHER", r"."),
)))
_ANCHOR_RE = re.compile(r"#\s*anchor:\s*(.+?)\s*$")


def lex(text: str) -> tuple[list[Token], list[str]]:
    """Tokenize; returns tokens plus any ``# anchor:`` comment payloads."""
    tokens: list[Token] = []
    anchors: list[str] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind == "BLANK":
            continue
        if kind == "NEWLINE":
            line += 1
            line_start = m.end()
        elif kind == "COMMENT":
            anchor = _ANCHOR_RE.match(m.group())
            if anchor:
                anchors.append(anchor.group(1))
        elif kind == "OTHER":
            ch = m.group()
            message = "unterminated string" if ch == '"' else f"unexpected character {ch!r}"
            raise ParseError(message, line, m.start() - line_start + 1)
        else:
            value = m.group()
            tokens.append(Token(
                kind, value[1:-1] if kind == "STRING" else value, line, m.start() - line_start + 1
            ))
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens, anchors


# --- syntax tree -------------------------------------------------------------


class GenRef(NamedTuple):
    """A generator reference: surface form plus the resolved 1-based index."""

    name: str
    coords: Optional[tuple[int, ...]]
    index: int

    def pretty(self) -> str:
        if self.coords is None:
            return self.name
        return f"{self.name}({', '.join(str(c) for c in self.coords)})"


class WordLit(NamedTuple):
    atoms: tuple[tuple[GenRef, int], ...]  # (generator, exponent != 0)

    def pretty(self) -> str:
        if not self.atoms:
            return "e"
        parts = []
        for ref, exp in self.atoms:
            parts.append(ref.pretty() if exp == 1 else f"{ref.pretty()}^{exp}")
        return " ".join(parts)


class PathLit(NamedTuple):
    atoms: tuple[tuple[str, int], ...]  # (edge id, exponent != 0)

    def pretty(self) -> str:
        if not self.atoms:
            return "e"
        return " ".join(e if k == 1 else f"{e}^{k}" for e, k in self.atoms)


class AutIdent(NamedTuple):
    def pretty(self) -> str:
        return "id"


class AutName(NamedTuple):
    name: str

    def pretty(self) -> str:
        return self.name


class AutNamedGen(NamedTuple):
    kind: str  # L R C P I
    args: tuple[GenRef, ...]

    def pretty(self) -> str:
        return f"{self.kind}({', '.join(a.pretty() for a in self.args)})"


class AutInduced(NamedTuple):
    gaut: str
    mode: str  # "at" | "delta"
    vertex: Optional[str]
    delta: Optional[PathLit]
    basis: Optional[str]

    def pretty(self) -> str:
        out = f"induced {self.gaut}"
        out += f" at {self.vertex}" if self.mode == "at" else f" delta {self.delta.pretty()}"
        if self.basis:
            out += f" basis {self.basis}"
        return out


class AutPow(NamedTuple):
    base: "AutExpr"
    exp: int

    def pretty(self) -> str:
        base = self.base.pretty()
        if isinstance(self.base, (AutProd, AutInduced, AutPow)):
            base = f"({base})"
        return f"{base}^{self.exp}"


class AutProd(NamedTuple):
    factors: tuple["AutExpr", ...]

    def pretty(self) -> str:
        parts = []
        for f in self.factors:
            p = f.pretty()
            if isinstance(f, (AutProd, AutInduced)):
                p = f"({p})"
            parts.append(p)
        return " * ".join(parts)


AutExpr = Union[AutIdent, AutName, AutNamedGen, AutInduced, AutPow, AutProd]


class MatLit(NamedTuple):
    """Matrix expression: identity (optionally negated), an elementary-matrix
    power, or a row-major literal with ';' between rows."""

    form: str  # "id" | "negid" | "elementary" | "rows"
    k: int = 0
    r: int = 0
    power: int = 1
    rows: tuple[tuple[int, ...], ...] = ()

    def pretty(self) -> str:
        if self.form == "id":
            return "id"
        if self.form == "negid":
            return "-id"
        if self.form == "elementary":
            base = f"elementary({self.k}, {self.r})"
            return base if self.power == 1 else f"{base}^{self.power}"
        return "[" + "; ".join(" ".join(str(a) for a in row) for row in self.rows) + "]"


# Statements


class RankDecl(NamedTuple):
    rank: int

    def pretty(self) -> str:
        return f"rank {self.rank}"


class ConstDecl(NamedTuple):
    name: str
    value: int

    def pretty(self) -> str:
        return f"const {self.name} = {self.value}"


class LayoutItem(NamedTuple):
    name: str
    dims: Optional[tuple[tuple[str, int, int], ...]]  # (var, lo, hi)

    @property
    def size(self) -> int:
        """Number of generators the item stands for."""
        return 1 if self.dims is None else prod(hi - lo + 1 for _, lo, hi in self.dims)

    def pretty(self) -> str:
        if self.dims is None:
            return self.name
        inner = ", ".join(f"{v}={lo}..{hi}" for v, lo, hi in self.dims)
        return f"{self.name}[{inner}]"


class GensDecl(NamedTuple):
    items: tuple[LayoutItem, ...]

    def pretty(self) -> str:
        return "gens " + " ".join(i.pretty() for i in self.items)


class WordDecl(NamedTuple):
    name: str
    value: WordLit

    def pretty(self) -> str:
        return f"word {self.name} = {self.value.pretty()}"


class AutDeclExpr(NamedTuple):
    name: str
    expr: AutExpr

    def pretty(self) -> str:
        return f"aut {self.name} = {self.expr.pretty()}"


class AutDeclImages(NamedTuple):
    name: str
    entries: tuple[tuple[GenRef, WordLit], ...]

    def pretty(self) -> str:
        body = "; ".join(f"{g.pretty()} -> {w.pretty()}" for g, w in self.entries)
        return f"aut {self.name} {{ {body} }}"


class GraphCtorDecl(NamedTuple):
    name: str
    ctor: str
    args: tuple[int, ...]
    graph: Graph  # built at parse time

    def pretty(self) -> str:
        return f"graph {self.name} = {self.ctor}({', '.join(map(str, self.args))})"


class GraphBlockDecl(NamedTuple):
    name: str
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, str], ...]  # includes loops (src == dst)
    graph: Graph  # built at parse time

    def pretty(self) -> str:
        parts = [f"vertex {' '.join(self.vertices)};"]
        for e, s, d in self.edges:
            parts.append(f"loop {e} {s};" if s == d else f"edge {e} {s} {d};")
        return f"graph {self.name} {{ " + " ".join(parts) + " }"


class GautBuiltinDecl(NamedTuple):
    name: str
    kind: str  # a key of graphs.SYMMETRIES
    graph: str

    def pretty(self) -> str:
        return f"gaut {self.name} = {self.kind} on {self.graph}"


class GautBlockDecl(NamedTuple):
    name: str
    graph: str
    entries: tuple[tuple[str, str, bool], ...]  # (edge, target, reversed)

    def pretty(self) -> str:
        body = "; ".join(
            f"{e} -> {'~' if rev else ''}{t}" for e, t, rev in self.entries
        )
        return f"gaut {self.name} on {self.graph} {{ {body} }}"


class BasisDecl(NamedTuple):
    name: str
    graph: str
    basepoint: str
    entries: tuple[tuple[GenRef, PathLit], ...]

    def pretty(self) -> str:
        body = "; ".join(f"{g.pretty()} = {p.pretty()}" for g, p in self.entries)
        return f"basis {self.name} on {self.graph} at {self.basepoint} {{ {body} }}"


class Assertion(NamedTuple):
    kind: str
    # exact/unequal/outer: lhs, rhs aut exprs
    # order/outorder: lhs, number (None = unbounded), negated
    # det: lhs, number
    # matrix: lhs, matlit, modulus (0 = none), negated
    # level: lhs, number
    # torelli / inner / notinner: lhs (+ witness word for inner)
    # fixes: lhs, word ;  maps: lhs, word, word2
    lhs: AutExpr
    rhs: Optional[AutExpr] = None
    number: Optional[int] = None
    matrix: Optional[MatLit] = None
    modulus: int = 0
    word: Optional[WordLit] = None
    word2: Optional[WordLit] = None
    negated: bool = False

    def pretty(self) -> str:
        k = self.kind
        if k == "exact":
            return f"assert {self.lhs.pretty()} {'!=' if self.negated else '=='} {self.rhs.pretty()}"
        if k == "outer":
            return f"assert {self.lhs.pretty()} ~ {self.rhs.pretty()}"
        if k in ("order", "outorder"):
            val = "unbounded" if self.number is None else str(self.number)
            return f"assert {k} {self.lhs.pretty()} {'!=' if self.negated else '=='} {val}"
        if k == "det":
            return f"assert det {self.lhs.pretty()} == {self.number}"
        if k == "matrix":
            mod = f" mod {self.modulus}" if self.modulus else ""
            op = "!=" if self.negated else "=="
            return f"assert matrix {self.lhs.pretty()}{mod} {op} {self.matrix.pretty()}"
        if k == "level":
            return f"assert level {self.number} {self.lhs.pretty()}"
        if k == "torelli":
            return f"assert torelli {self.lhs.pretty()}"
        if k == "inner":
            w = f" witness {self.word.pretty()}" if self.word is not None else ""
            return f"assert inner {self.lhs.pretty()}{w}"
        if k == "notinner":
            return f"assert not inner {self.lhs.pretty()}"
        if k == "fixes":
            return f"assert {self.lhs.pretty()} fixes {self.word.pretty()}"
        if k == "maps":
            return f"assert {self.lhs.pretty()} maps {self.word.pretty()} -> {self.word2.pretty()}"
        raise AssertionError(f"unknown assertion kind {k}")


class CheckStmt(NamedTuple):
    fn: str
    args: tuple[int | str, ...]
    expected: tuple[int | str, ...]  # one value, or several for list results
    large: bool = False

    def pretty(self) -> str:
        args = ", ".join(str(a) for a in self.args)
        if len(self.expected) == 1:
            exp = str(self.expected[0])
        else:
            exp = "[" + ", ".join(str(v) for v in self.expected) + "]"
        tail = " large" if self.large else ""
        return f"check {self.fn}({args}) == {exp}{tail}"


class NoteStmt(NamedTuple):
    text: str

    def pretty(self) -> str:
        return f'note "{self.text}"'


Statement = Union[
    RankDecl, ConstDecl, GensDecl, WordDecl, AutDeclExpr, AutDeclImages,
    GraphCtorDecl, GraphBlockDecl, GautBuiltinDecl, GautBlockDecl, BasisDecl,
    Assertion, CheckStmt, NoteStmt,
]


class Layout(NamedTuple):
    """Mapping from generator surface names to flattened 1-based indices."""

    items: tuple[LayoutItem, ...]

    @property
    def rank(self) -> int:
        """Number of generators, summed over the items."""
        return sum(item.size for item in self.items)

    def resolve(self, name: str, coords: Optional[tuple[int, ...]]) -> Optional[int]:
        base = 0
        for item in self.items:
            if name == item.name and (coords is None) == (item.dims is None):
                if coords is None:
                    return base + 1
                if len(coords) != len(item.dims):
                    return None
                offset = 0
                mult = 1
                # Earlier dimensions vary fastest.
                for c, (_, lo, hi) in zip(coords, item.dims):
                    if not lo <= c <= hi:
                        return None
                    offset += (c - lo) * mult
                    mult *= hi - lo + 1
                return base + offset + 1
            base += item.size
        return None

    def names(self) -> list[str]:
        """Display name of every generator, in flattened order."""
        if self.is_default():
            return [f"x{i}" for i in range(1, self.rank + 1)]
        names: list[str] = []
        for item in self.items:
            if item.dims is None:
                names.append(item.name)
                continue
            # product varies its last range fastest, so feed the dimensions
            # reversed and read each tuple back to front.
            ranges = [range(lo, hi + 1) for _, lo, hi in reversed(item.dims)]
            names.extend(
                f"{item.name}({','.join(map(str, reversed(coords)))})"
                for coords in product(*ranges)
            )
        return names

    @staticmethod
    def default(rank: int) -> "Layout":
        return Layout((LayoutItem("x", (("i", 1, rank),)),))

    def is_default(self) -> bool:
        return self.items == (LayoutItem("x", (("i", 1, self.rank),)),)


class Scenario(NamedTuple):
    name: str
    anchor: Optional[str]
    rank: int
    layout: Layout
    statements: tuple[Statement, ...]

    def pretty(self) -> str:
        lines = []
        if self.anchor is not None:
            lines.append(f"# anchor: {self.anchor}")
        if self.name not in KEYWORDS:  # the default name "scenario" is reserved
            lines.append(f"scenario {self.name}")
        lines.extend(stmt.pretty() for stmt in self.statements)
        return "\n".join(lines) + "\n"


# --- parser ------------------------------------------------------------------

# What each kind of check argument must be, and a test of a value for it.
# The bounds are those of ``autfn closure``; ``splitting`` reads the bundled
# 3 x 3 generating pair, so its size is that of the pair, and ``subreps``
# is sized for n from 3 to 8.  ``obstruction`` takes any size up to
# ``MAX_OBSTRUCTION_SIZE``: it reports the sizes it is not built for as
# ``rejected``.  ``closure_span`` works over the field F_p, so its p is a
# prime, tested by trial division up to MAX_CHECK_ROWS; a p above that
# passes here and its table of at least p rows is refused, so trial division
# never runs past isqrt(MAX_CHECK_ROWS).
_ARG_KINDS: dict[str, tuple[str, Callable[[int | str], bool]]] = {
    "family": ("a group family, sl or psl", lambda v: v in ("sl", "psl")),
    "size": ("a size n >= 1", lambda v: isinstance(v, int) and v >= 1),
    "modulus": ("a modulus >= 2", lambda v: isinstance(v, int) and v >= 2),
    "prime": (
        "a prime p",
        lambda v: isinstance(v, int) and v >= 2 and (
            v > MAX_CHECK_ROWS or all(v % d for d in range(2, isqrt(v) + 1))
        ),
    ),
    "fixture": ("the size 3 of the fixture pair", lambda v: v == 3),
    "scan": ("a size n from 3 to 8", lambda v: isinstance(v, int) and 3 <= v <= 8),
    "system": (
        f"a size n from 1 to {MAX_OBSTRUCTION_SIZE}",
        lambda v: isinstance(v, int) and 1 <= v <= MAX_OBSTRUCTION_SIZE,
    ),
    "integer": ("an integer", lambda v: isinstance(v, int)),
}
# Each check's argument kinds, and the modulus m and size n of the table of
# m^n matrix rows (``modgroups._Space``) it builds, or None for no table.
# The reduction checks work mod p^2, and ``splitting_fixture`` embeds
# SL_n(Z/p) in dimension n + 2.  ``closure_span`` builds its table mod p
# alone, so it is bounded by p^n rows; the largest sizes this admits take
# seconds, (10, 3) and (16, 2) for instance.
_CHECK_FNS: dict[str, tuple[tuple[str, ...], Callable[..., Optional[tuple[int, int]]]]] = {
    "order": (("family", "size", "modulus"), lambda _, n, m: (m, n)),
    "center": (("family", "size", "modulus"), lambda _, n, m: (m, n)),
    "simple": (("family", "size", "modulus"), lambda _, n, m: (m, n)),
    "kernel": (("size", "modulus"), lambda n, p: (p * p, n)),
    "closure_kernel": (("size", "modulus", "integer"), lambda n, p, _: (p * p, n)),
    "closure_span": (("size", "prime"), lambda n, p: (p, n)),
    "splitting": (("fixture", "modulus"), lambda n, p: (p * p, n)),
    "splitting_fixture": (("size", "modulus"), lambda n, p: (p, n + 2)),
    "subreps": (("scan",), lambda n: (2, n)),
    "obstruction": (("system",), lambda n: None),
}


def table_rows(m: int, n: int) -> int:
    """m^n for m >= 2, or the first power of m above ``MAX_CHECK_ROWS``, so
    that a huge n costs a few multiplications."""
    rows = 1
    for _ in range(n):
        rows *= m
        if rows > MAX_CHECK_ROWS:
            break
    return rows


class Parser:
    def __init__(self, text: str):
        self.tokens, self.anchors = lex(text)
        self.pos = 0
        # symbol tables for parse-time name resolution; ``names`` holds every
        # declared name, whatever its kind, so no two declarations share one
        self.names: set[str] = set()
        self.consts: dict[str, int] = {}
        self.auts: set[str] = set()
        self.graphs: dict[str, Graph] = {}
        self.gauts: dict[str, str] = {}  # gaut name -> graph name
        self.bases: dict[str, str] = {}  # basis name -> graph name
        self.layout: Optional[Layout] = None
        self.rank: Optional[int] = None

    # token helpers

    def peek(self, offset: int = 0) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def error(self, message: str, expected: tuple[str, ...] = ()) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col, expected)

    def expect_punct(self, value: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.value != value:
            raise self.error(f"found {tok.value!r}", (repr(value),))
        return self.next()

    def at_punct(self, *values: str) -> bool:
        tok = self.peek()
        return tok.kind == "PUNCT" and tok.value in values

    def at_keyword(self, *words: str) -> bool:
        tok = self.peek()
        return tok.kind == "IDENT" and tok.value in words

    def expect_keyword(self, word: str) -> Token:
        tok = self.peek()
        if tok.kind != "IDENT" or tok.value != word:
            raise self.error(f"found {tok.value!r}", (word,))
        return self.next()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error(f"expected {what}, found {tok.value!r}", (what,))
        if tok.value in KEYWORDS or tok.value in AUT_CONSTRUCTORS:
            raise self.error(f"{tok.value!r} is reserved", (what,))
        return self.next()

    def expect_int(self) -> int:
        tok = self.peek()
        if tok.kind == "INT":
            self.next()
            return int(tok.value)
        if tok.kind == "IDENT" and tok.value in self.consts:
            self.next()
            return self.consts[tok.value]
        raise self.error(f"expected integer, found {tok.value!r}", ("integer",))

    def parse_int_args(self) -> tuple[int, ...]:
        """``(n, n, ...)``: one or more integers or constants."""
        self.expect_punct("(")
        got = [self.expect_int()]
        while self.at_punct(","):
            self.next()
            got.append(self.expect_int())
        self.expect_punct(")")
        return tuple(got)

    def parse_value(self, what: str, consts: bool = False) -> int | str:
        """An integer or a name; with ``consts``, a constant reads as its value."""
        tok = self.peek()
        if tok.kind not in ("INT", "IDENT"):
            raise self.error(f"expected {what}", ("integer", "name"))
        self.next()
        if tok.kind == "INT":
            return int(tok.value)
        return self.consts.get(tok.value, tok.value) if consts else tok.value

    def parse_seq(
        self, entry: Callable[[], T], brackets: str = "{}", seps: tuple[str, ...] = (";", ",")
    ) -> tuple[T, ...]:
        """``{ entry [sep] entry [sep] ... }``: entries up to the closing
        bracket, each optionally followed by one separator."""
        self.expect_punct(brackets[0])
        entries: list[T] = []
        while not self.at_punct(brackets[1]):
            entries.append(entry())
            if self.at_punct(*seps):
                self.next()
        self.expect_punct(brackets[1])
        return tuple(entries)

    def declare(self, what: str) -> str:
        """A new name for a definition; no earlier definition may use it."""
        tok = self.expect_ident(what)
        if tok.value in self.names:
            raise ParseError(f"name {tok.value!r} already defined", tok.line, tok.col)
        self.names.add(tok.value)
        return tok.value

    def graph_ref(self) -> tuple[str, Graph]:
        tok = self.expect_ident("graph name")
        if tok.value not in self.graphs:
            raise ParseError(f"unknown graph {tok.value!r}", tok.line, tok.col)
        return tok.value, self.graphs[tok.value]

    def expect_member(self, what: str, kind: str, ids, graph_name: str) -> Token:
        """An identifier that ``ids``, the vertices or edges of a graph, holds."""
        tok = self.expect_ident(what)
        if tok.value not in ids:
            raise ParseError(
                f"{kind} {tok.value!r} is not in graph {graph_name!r}", tok.line, tok.col
            )
        return tok

    # entry points

    def parse(self, default_name: str = "scenario") -> Scenario:
        name = default_name
        statements: list[Statement] = []
        if self.at_keyword("scenario"):
            self.next()
            name = self.expect_ident("scenario name").value
        while self.peek().kind != "EOF":
            statements.append(self.parse_statement())
        if self.rank is None:
            raise ParseError("scenario never declares rank or gens", 1, 1)
        return Scenario(
            name=name,
            anchor=self.anchors[0] if self.anchors else None,
            rank=self.rank,
            layout=self.layout if self.layout is not None else Layout.default(self.rank),
            statements=tuple(statements),
        )

    def parse_fragment(self, text: str, rule: Callable[[], T]) -> T:
        """Parse ``text`` on its own with ``rule`` (for example
        ``parse_aut_expr`` or ``parse_word_lit``) against the names declared
        so far; the text must end where the rule stops.  Error locations
        refer to ``text``."""
        self.tokens, _ = lex(text)
        self.pos = 0
        value = rule()
        if self.peek().kind != "EOF":
            raise self.error(f"found {self.peek().value!r}", ("end of input",))
        return value

    def require_rank(self) -> int:
        if self.rank is None:
            raise self.error("rank (or gens) must be declared first")
        return self.rank

    def parse_statement(self) -> Statement:
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error(f"expected a statement, found {tok.value!r}", ("statement",))
        kw = tok.value
        if kw == "rank":
            self.next()
            value = self.expect_int()
            if value < 1:
                raise self.error("rank must be positive")
            if self.rank is not None:
                raise self.error("rank already declared")
            self.rank = value
            self.layout = Layout.default(value)
            return RankDecl(value)
        if kw == "const":
            self.next()
            name = self.declare("constant name")
            self.expect_punct("=")
            value = self.expect_int()
            self.consts[name] = value
            return ConstDecl(name, value)
        if kw == "gens":
            return self.parse_gens()
        if kw == "word":
            self.next()
            name = self.declare("word name")
            self.expect_punct("=")
            return WordDecl(name, self.parse_word_lit())
        if kw == "aut":
            return self.parse_aut_decl()
        if kw == "graph":
            return self.parse_graph_decl()
        if kw == "gaut":
            return self.parse_gaut_decl()
        if kw == "basis":
            return self.parse_basis_decl()
        if kw == "assert":
            self.next()
            return self.parse_assertion()
        if kw == "check":
            self.next()
            return self.parse_check()
        if kw == "note":
            self.next()
            tok = self.peek()
            if tok.kind != "STRING":
                raise self.error("note takes a quoted string", ("string",))
            self.next()
            return NoteStmt(tok.value)
        raise self.error(f"unknown statement {kw!r}", ("statement keyword",))

    def parse_gens(self) -> GensDecl:
        self.next()
        if self.rank is not None:
            raise self.error("generator layout conflicts with an earlier rank/gens")
        items: list[LayoutItem] = []
        while True:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.value in KEYWORDS:
                break
            if tok.value in AUT_CONSTRUCTORS:
                raise self.error(f"{tok.value!r} is reserved for automorphism constructors")
            self.next()
            if self.at_punct("["):
                self.next()
                dims: list[tuple[str, int, int]] = []
                while True:
                    var = self.expect_ident("dimension variable").value
                    self.expect_punct("=")
                    lo = self.expect_int()
                    self.expect_punct("..")
                    hi = self.expect_int()
                    if hi < lo:
                        raise self.error(f"empty range {lo}..{hi}")
                    dims.append((var, lo, hi))
                    if self.at_punct(","):
                        self.next()
                        continue
                    break
                self.expect_punct("]")
                items.append(LayoutItem(tok.value, tuple(dims)))
            else:
                items.append(LayoutItem(tok.value, None))
        if not items:
            raise self.error("gens needs at least one layout item")
        names = [i.name for i in items]
        if len(set(names)) != len(names):
            raise self.error("duplicate generator family name")
        self.layout = Layout(tuple(items))
        self.rank = self.layout.rank
        return GensDecl(tuple(items))

    # generator references and word literals

    def parse_genref(self) -> GenRef:
        self.require_rank()
        assert self.layout is not None
        tok = self.peek()
        if tok.kind != "IDENT":
            raise self.error("expected a generator reference", ("generator",))
        name = tok.value
        self.next()
        coords = self.parse_int_args() if self.at_punct("(") else None
        index = self.layout.resolve(name, coords)
        if index is None and coords is None and self.layout.is_default():
            m = re.fullmatch(r"x(\d+)", name)
            if m:
                idx = int(m.group(1))
                if 1 <= idx <= self.rank:
                    return GenRef(name, None, idx)
                raise ParseError(
                    f"generator {name} out of range for rank {self.rank}",
                    tok.line, tok.col,
                )
        if index is None:
            raise ParseError(
                f"unknown generator {name!r}"
                + (f" with coordinates {coords}" if coords else ""),
                tok.line, tok.col,
            )
        return GenRef(name, coords, index)

    def parse_genarg(self) -> GenRef:
        """Named generators accept either a plain index or a generator
        reference, e.g. L(1, 2) or L(x(1,1), x(2,1))."""
        tok = self.peek()
        if tok.kind == "INT" or (tok.kind == "IDENT" and tok.value in self.consts):
            value = self.expect_int()
            rank = self.require_rank()
            if not 1 <= value <= rank:
                raise ParseError(
                    f"generator index {value} out of range for rank {rank}",
                    tok.line, tok.col,
                )
            return GenRef(str(value), None, value)
        return self.parse_genref()

    def parse_atoms(
        self, item: Callable[[], Optional[T]], literal: str
    ) -> tuple[tuple[T, int], ...]:
        """``e``, or one or more ``item[^k]`` with k != 0.  ``item`` reads one
        item, or returns None, reading nothing, where the literal stops;
        ``literal`` names the literal ("word" or "path") in diagnostics.  The
        |k| summed over the atoms is at most ``MAX_LITERAL_LETTERS``, so an
        atom such as ``x1^1000000000`` is a parse error located at that atom,
        before any letter is written out."""
        if self.at_keyword("e"):
            self.next()
            return ()
        atoms: list[tuple[T, int]] = []
        letters = 0
        while True:
            start = self.peek()
            if (value := item()) is None:
                break
            exp = 1
            if self.at_punct("^"):
                self.next()
                exp = self.expect_int()
                if exp == 0:
                    raise self.error(f"zero exponent in {literal} literal")
            letters += abs(exp)
            if letters > MAX_LITERAL_LETTERS:
                raise ParseError(
                    f"{literal} literal writes out more than "
                    f"{MAX_LITERAL_LETTERS} letters",
                    start.line, start.col,
                )
            atoms.append((value, exp))
        if not atoms:
            raise self.error(*_MISSING_LITERAL[literal])
        return tuple(atoms)

    def parse_word_lit(self) -> WordLit:
        """A word literal.  Any name but a reserved one other than ``e`` is
        read as a generator, so an unknown name is an error."""

        def generator() -> Optional[GenRef]:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.value != "e" and (
                tok.value in KEYWORDS or tok.value in AUT_CONSTRUCTORS
            ):
                return None
            return self.parse_genref()

        return WordLit(self.parse_atoms(generator, "word"))

    def parse_path_lit(self, graph: Graph) -> PathLit:
        """An edge path in ``graph``; it stops at a name that is not an edge."""

        def edge() -> Optional[str]:
            tok = self.peek()
            if tok.kind != "IDENT" or tok.value not in graph.ends:
                return None
            return self.next().value

        return PathLit(self.parse_atoms(edge, "path"))

    # automorphism declarations and expressions

    def parse_aut_decl(self) -> Statement:
        self.next()
        name = self.declare("automorphism name")
        if self.at_punct("{"):
            seen: set[int] = set()

            def image() -> tuple[GenRef, WordLit]:
                ref = self.parse_genref()
                if ref.index in seen:
                    raise self.error(f"duplicate image for {ref.pretty()}")
                seen.add(ref.index)
                self.expect_punct("->")
                return ref, self.parse_word_lit()

            stmt: Statement = AutDeclImages(name, self.parse_seq(image))
        else:
            self.expect_punct("=")
            stmt = AutDeclExpr(name, self.parse_aut_expr())
        self.auts.add(name)
        return stmt

    def parse_aut_expr(self) -> AutExpr:
        factors = [self.parse_aut_term()]
        while self.at_punct("*"):
            self.next()
            factors.append(self.parse_aut_term())
        if len(factors) == 1:
            return factors[0]
        return AutProd(tuple(factors))

    def parse_aut_term(self) -> AutExpr:
        atom = self.parse_aut_atom()
        if self.at_punct("^"):
            self.next()
            exp = self.expect_int()
            return AutPow(atom, exp)
        return atom

    def parse_aut_atom(self) -> AutExpr:
        tok = self.peek()
        if self.at_punct("("):
            self.next()
            expr = self.parse_aut_expr()
            self.expect_punct(")")
            return expr
        if tok.kind != "IDENT":
            raise self.error("expected an automorphism", ("automorphism",))
        if tok.value == "id":
            self.next()
            return AutIdent()
        if tok.value in AUT_CONSTRUCTORS:
            self.next()
            self.expect_punct("(")
            args = [self.parse_genarg()]
            if tok.value != "I":
                self.expect_punct(",")
                args.append(self.parse_genarg())
                if args[0].index == args[1].index:
                    raise ParseError(
                        f"{tok.value} needs distinct generators", tok.line, tok.col
                    )
            self.expect_punct(")")
            return AutNamedGen(tok.value, tuple(args))
        if tok.value == "induced":
            self.next()
            gaut_tok = self.expect_ident("graph automorphism name")
            if gaut_tok.value not in self.gauts:
                raise ParseError(
                    f"unknown graph automorphism {gaut_tok.value!r}",
                    gaut_tok.line, gaut_tok.col,
                )
            graph_name = self.gauts[gaut_tok.value]
            graph = self.graphs[graph_name]
            vertex = None
            delta = None
            if self.at_keyword("at"):
                self.next()
                mode = "at"
                vertex = self.expect_member("vertex", "vertex", graph.vertices, graph_name).value
            elif self.at_keyword("delta"):
                self.next()
                mode = "delta"
                delta = self.parse_path_lit(graph)
            else:
                raise self.error("induced needs 'at VERTEX' or 'delta PATH'",
                                 ("at", "delta"))
            basis = None
            if self.at_keyword("basis"):
                self.next()
                btok = self.expect_ident("basis name")
                if btok.value not in self.bases:
                    raise ParseError(
                        f"unknown basis {btok.value!r}", btok.line, btok.col
                    )
                if self.bases[btok.value] != graph_name:
                    raise ParseError(
                        f"basis {btok.value!r} lives on a different graph",
                        btok.line, btok.col,
                    )
                basis = btok.value
            return AutInduced(gaut_tok.value, mode, vertex, delta, basis)
        if tok.value in KEYWORDS:
            raise self.error(f"expected an automorphism, found {tok.value!r}",
                             ("automorphism",))
        if tok.value not in self.auts:
            raise ParseError(f"unknown automorphism {tok.value!r}", tok.line, tok.col)
        self.next()
        return AutName(tok.value)

    # graphs

    def parse_graph_decl(self) -> Statement:
        """A constructor call or a block, built into a ``Graph`` here, so a
        graph that cannot be built is a parse error.

        A constructor's arguments may multiply to at most
        ``MAX_CONSTRUCTOR_SIZE``; every constructor builds at most twice
        that many vertices and twice that many edges, so a larger call such as
        ``rose(100000)`` is a parse error, located at the constructor, before
        any graph is built."""
        self.next()
        name_tok = self.peek()
        name = self.declare("graph name")
        if self.at_punct("="):
            self.next()
            ctor_tok = self.peek()
            if ctor_tok.kind != "IDENT" or ctor_tok.value not in CONSTRUCTORS:
                raise self.error(
                    "expected a graph constructor", tuple(sorted(CONSTRUCTORS))
                )
            self.next()
            args = self.parse_int_args()
            ctor = CONSTRUCTORS[ctor_tok.value]
            want = ctor.__code__.co_argcount
            if len(args) != want:
                raise self.error(f"{ctor_tok.value} takes {want} argument(s)")
            size = prod(max(a, 1) for a in args)
            if size > MAX_CONSTRUCTOR_SIZE:
                raise ParseError(
                    f"{ctor_tok.value}: arguments multiply to {size}, "
                    f"above the bound {MAX_CONSTRUCTOR_SIZE}",
                    ctor_tok.line,
                    ctor_tok.col,
                )
            try:
                graph = ctor(*args)
            except ValueError as exc:
                raise ParseError(
                    f"{ctor_tok.value}: {exc}", ctor_tok.line, ctor_tok.col
                ) from None
            self.graphs[name] = graph
            return GraphCtorDecl(name, ctor_tok.value, args, graph)
        vertices: list[str] = []
        edges: list[tuple[str, str, str]] = []
        ids: set[str] = set()

        def edge(e: str, s: str, d: str) -> None:
            if e in ids:
                raise self.error(f"duplicate edge id {e!r}")
            ids.add(e)
            edges.append((e, s, d))

        def part() -> None:
            if self.at_keyword("vertex"):
                self.next()
                while self.peek().kind == "IDENT" and self.peek().value not in KEYWORDS:
                    vtok = self.next()
                    if vtok.value in vertices:
                        raise ParseError(
                            f"duplicate vertex {vtok.value!r}", vtok.line, vtok.col
                        )
                    vertices.append(vtok.value)
            elif self.at_keyword("edge"):
                self.next()
                e = self.expect_ident("edge id").value
                s = self.expect_ident("source vertex").value
                edge(e, s, self.expect_ident("target vertex").value)
            elif self.at_keyword("loop"):
                self.next()
                e = self.expect_ident("loop id").value
                v = self.expect_ident("vertex").value
                edge(e, v, v)
            else:
                raise self.error("expected vertex/edge/loop", ("vertex", "edge", "loop"))

        self.parse_seq(part, seps=(";",))
        vset = set(vertices)
        for e, s, d in edges:
            if s not in vset or d not in vset:
                raise self.error(f"edge {e!r} uses an undeclared vertex")
        try:
            graph = Graph(tuple(vertices), tuple(edges))
        except ValueError as exc:
            raise ParseError(f"{name}: {exc}", name_tok.line, name_tok.col) from None
        self.graphs[name] = graph
        return GraphBlockDecl(name, graph.vertices, graph.edges, graph)

    def parse_gaut_decl(self) -> Statement:
        self.next()
        name = self.declare("graph automorphism name")
        if self.at_punct("="):
            self.next()
            kind_tok = self.peek()
            if kind_tok.kind != "IDENT" or kind_tok.value not in SYMMETRIES:
                raise self.error(f"expected {' or '.join(SYMMETRIES)}", tuple(SYMMETRIES))
            self.next()
            self.expect_keyword("on")
            graph_name, _ = self.graph_ref()
            stmt: Statement = GautBuiltinDecl(name, kind_tok.value, graph_name)
        else:
            self.expect_keyword("on")
            graph_name, graph = self.graph_ref()
            mapped: set[str] = set()

            def image() -> tuple[str, str, bool]:
                etok = self.expect_member("edge id", "edge", graph.ends, graph_name)
                if etok.value in mapped:
                    raise ParseError(f"edge {etok.value!r} mapped twice", etok.line, etok.col)
                mapped.add(etok.value)
                self.expect_punct("->")
                rev = self.at_punct("~")
                if rev:
                    self.next()
                ttok = self.expect_member("target edge id", "edge", graph.ends, graph_name)
                return etok.value, ttok.value, rev

            stmt = GautBlockDecl(name, graph_name, self.parse_seq(image))
        self.gauts[name] = graph_name
        return stmt

    def parse_basis_decl(self) -> Statement:
        self.next()
        name = self.declare("basis name")
        self.expect_keyword("on")
        graph_name, graph = self.graph_ref()
        self.expect_keyword("at")
        base = self.expect_member("basepoint vertex", "vertex", graph.vertices, graph_name).value
        seen: set[int] = set()

        def entry() -> tuple[GenRef, PathLit]:
            ref = self.parse_genref()
            if ref.index in seen:
                raise self.error(f"duplicate basis entry for {ref.pretty()}")
            seen.add(ref.index)
            self.expect_punct("=")
            return ref, self.parse_path_lit(graph)

        entries = self.parse_seq(entry)
        rank = self.require_rank()
        if len(entries) != rank:
            raise self.error(
                f"basis has {len(entries)} entries but the rank is {rank}"
            )
        self.bases[name] = graph_name
        return BasisDecl(name, graph_name, base, entries)

    # assertions and checks

    def parse_assertion(self) -> Assertion:
        if self.at_keyword("order", "outorder"):
            kind = self.next().value
            lhs = self.parse_aut_expr()
            negated = self._eq_or_ne()
            if self.at_keyword("unbounded"):
                self.next()
                return Assertion(kind, lhs, number=None, negated=negated)
            return Assertion(kind, lhs, number=self.expect_int(), negated=negated)
        if self.at_keyword("det"):
            self.next()
            lhs = self.parse_aut_expr()
            self.expect_punct("==")
            return Assertion("det", lhs, number=self.expect_int())
        if self.at_keyword("matrix"):
            self.next()
            lhs = self.parse_aut_expr()
            modulus = 0
            if self.at_keyword("mod"):
                self.next()
                modulus = self.expect_int()
                if modulus < 2:
                    raise self.error("modulus must be at least 2")
            negated = self._eq_or_ne()
            mat = self.parse_mat_lit()
            return Assertion("matrix", lhs, matrix=mat, modulus=modulus, negated=negated)
        if self.at_keyword("level"):
            self.next()
            level = self.expect_int()
            if level < 2:
                raise self.error("level must be at least 2")
            lhs = self.parse_aut_expr()
            return Assertion("level", lhs, number=level)
        if self.at_keyword("torelli"):
            self.next()
            return Assertion("torelli", self.parse_aut_expr())
        if self.at_keyword("not"):
            self.next()
            self.expect_keyword("inner")
            return Assertion("notinner", self.parse_aut_expr())
        if self.at_keyword("inner"):
            self.next()
            lhs = self.parse_aut_expr()
            word = None
            if self.at_keyword("witness"):
                self.next()
                word = self.parse_word_lit()
            return Assertion("inner", lhs, word=word)
        lhs = self.parse_aut_expr()
        if self.at_keyword("fixes"):
            self.next()
            return Assertion("fixes", lhs, word=self.parse_word_lit())
        if self.at_keyword("maps"):
            self.next()
            word = self.parse_word_lit()
            self.expect_punct("->")
            return Assertion("maps", lhs, word=word, word2=self.parse_word_lit())
        if self.at_punct("~"):
            self.next()
            return Assertion("outer", lhs, rhs=self.parse_aut_expr())
        negated = self._eq_or_ne()
        return Assertion("exact", lhs, rhs=self.parse_aut_expr(), negated=negated)

    def _eq_or_ne(self) -> bool:
        if self.at_punct("=="):
            self.next()
            return False
        if self.at_punct("!="):
            self.next()
            return True
        raise self.error("expected == or !=", ("==", "!="))

    def parse_mat_lit(self) -> MatLit:
        if self.at_punct("-"):
            self.next()
            self.expect_keyword("id")
            return MatLit("negid")
        if self.at_keyword("id"):
            self.next()
            return MatLit("id")
        if self.at_keyword("elementary"):
            self.next()
            self.expect_punct("(")
            k = self.expect_int()
            self.expect_punct(",")
            r = self.expect_int()
            self.expect_punct(")")
            power = 1
            if self.at_punct("^"):
                self.next()
                power = self.expect_int()
            rank = self.require_rank()
            if not (1 <= k <= rank and 1 <= r <= rank) or k == r:
                raise self.error(f"elementary({k}, {r}) out of range for rank {rank}")
            return MatLit("elementary", k=k, r=r, power=power)
        if self.at_punct("["):
            self.next()
            rows: list[tuple[int, ...]] = []
            current: list[int] = []
            while not self.at_punct("]"):
                if self.at_punct(";"):
                    self.next()
                    rows.append(tuple(current))
                    current = []
                    continue
                tok = self.peek()
                if tok.kind != "INT":
                    raise self.error("matrix rows are integers", ("integer", ";", "]"))
                current.append(int(self.next().value))
            self.expect_punct("]")
            rows.append(tuple(current))
            rank = self.require_rank()
            if len(rows) != rank or any(len(r) != rank for r in rows):
                raise self.error(f"matrix literal must be {rank}x{rank}")
            return MatLit("rows", rows=tuple(rows))
        raise self.error("expected a matrix expression", ("id", "-id", "elementary", "["))

    def parse_check(self) -> CheckStmt:
        fn_tok = self.peek()
        if fn_tok.kind != "IDENT" or fn_tok.value not in _CHECK_FNS:
            raise self.error("unknown check", tuple(sorted(_CHECK_FNS)))
        self.next()
        located = self.parse_seq(
            lambda: (self.peek(), self.parse_value("a check argument", consts=True)),
            "()", (",",),
        )
        kinds, table = _CHECK_FNS[fn_tok.value]
        if len(located) != len(kinds):
            raise self.error(f"{fn_tok.value} takes {len(kinds)} argument(s)")
        for (tok, value), kind in zip(located, kinds):
            what, valid = _ARG_KINDS[kind]
            if not valid(value):
                raise ParseError(
                    f"{fn_tok.value} needs {what}, found {value}", tok.line, tok.col
                )
        args = tuple(value for _, value in located)
        if (shape := table(*args)) is not None and table_rows(*shape) > MAX_CHECK_ROWS:
            # Blame the size, or the modulus where the size is fixed.
            tok = located[kinds.index("size" if "size" in kinds else "modulus")][0]
            raise ParseError(
                f"{fn_tok.value}: a table of {shape[0]}^{shape[1]} matrix rows "
                f"is above the bound {MAX_CHECK_ROWS}",
                tok.line, tok.col,
            )
        self.expect_punct("==")
        if self.at_punct("["):
            expected = self.parse_seq(lambda: self.parse_value("a value"), "[]", (",",))
        else:
            expected = (self.parse_value("a value"),)
        large = self.at_keyword("large")
        if large:
            self.next()
        return CheckStmt(fn_tok.value, args, expected, large)


def parse_scenario(text: str, name: str = "scenario") -> Scenario:
    return Parser(text).parse(default_name=name)
