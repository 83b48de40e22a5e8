import re
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from autfn.endos import NAMED_KINDS
from autfn.graphs import CONSTRUCTORS, Graph
from autfn.runner import bundled_corpus_dir
from autfn.scenario import (
    KEYWORDS, MAX_OBSTRUCTION_SIZE, PUNCT, AutName, CheckStmt, NoteStmt, ParseError, lex,
    parse_scenario,
)


class TestParseBasics:
    def test_one_liner(self):
        s = parse_scenario("rank 2  aut p = P(1,2)  assert p * p == id")
        kinds = [type(st).__name__ for st in s.statements]
        assert kinds == ["RankDecl", "AutDeclExpr", "Assertion"]
        assert s.rank == 2

    def test_rank_bound_diagnostic(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("rank 4\naut f { x1 -> x9 }")
        assert exc.value.line == 2
        assert "x9" in exc.value.message

    def test_undefined_automorphism(self):
        with pytest.raises(ParseError, match="unknown automorphism"):
            parse_scenario("rank 2\nassert q == id")

    def test_undefined_graph(self):
        with pytest.raises(ParseError, match="unknown graph"):
            parse_scenario("rank 2\ngaut t = rotation on missing")

    def test_duplicate_name(self):
        with pytest.raises(ParseError, match="already defined"):
            parse_scenario("rank 2\nword w = x1\nword w = x2")

    def test_missing_rank(self):
        with pytest.raises(ParseError, match="rank"):
            parse_scenario("aut f = id")

    def test_diagnostic_carries_location_and_expectations(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("rank 2\nassert P(1 2) == id")
        assert exc.value.line == 2
        assert exc.value.col > 0
        assert exc.value.expected

    def test_reserved_names_rejected(self):
        with pytest.raises(ParseError, match="reserved"):
            parse_scenario("rank 2\nword assert = x1")

    def test_anchor_collected(self):
        s = parse_scenario("# anchor: some-label\nrank 2")
        assert s.anchor == "some-label"

    @pytest.mark.parametrize(
        "text, line, col, literal",
        [
            ("rank 2\naut f { x1 -> x1^1000000000 }", 2, 15, "word"),
            ("rank 2\nword w = x1^5000 x2^-5000 x1", 2, 27, "word"),
            (
                "rank 2\ngraph g = rose(2)\n"
                "basis B on g at v0 { x1 = s1^10000 s2; x2 = s2 }",
                3, 36, "path",
            ),
        ],
    )
    def test_oversized_literal_is_located_at_the_crossing_atom(
        self, text, line, col, literal
    ):
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert (exc.value.line, exc.value.col, exc.value.message) == (
            line, col, f"{literal} literal writes out more than 10000 letters"
        )

    def test_literal_at_the_letter_bound_parses(self):
        s = parse_scenario("rank 2\nword w = x1^-9999 x2")
        assert s.statements[1].value.atoms[0][1] == -9999


class TestLexing:
    @pytest.mark.parametrize(
        "text, where, char",
        [
            ("rank 1\nword é = x1", (2, 6), "é"),
            ("rank 2\nassert order P(1,2) == ²", (2, 24), "²"),
            ("rank 2\naut f { x1 -> x2² }", (2, 17), "²"),
            ("rank 2\nassert id == id @", (2, 17), "@"),
        ],
    )
    def test_stray_character_is_located(self, text, where, char):
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert (exc.value.line, exc.value.col) == where
        assert exc.value.message == f"unexpected character {char!r}"

    def test_string_ends_on_its_line(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario('rank 2\nnote "first\nsecond"\nassert det P(1,2) == -1 @')
        assert (exc.value.line, exc.value.col) == (2, 6)
        assert exc.value.message == "unterminated string"

    def test_signed_integers_and_arrows(self):
        tokens, _ = lex("x1^-1 -> a-b - 2 -3")
        assert [(t.kind, t.value) for t in tokens] == [
            ("IDENT", "x1"), ("PUNCT", "^"), ("INT", "-1"), ("PUNCT", "->"),
            ("IDENT", "a-b"), ("PUNCT", "-"), ("INT", "2"), ("INT", "-3"), ("EOF", ""),
        ]
        assert [t.col for t in tokens] == [1, 3, 4, 7, 10, 14, 16, 18, 20]


class TestLayouts:
    def test_family_flattening_earlier_dimension_fastest(self):
        s = parse_scenario("gens x[i=0..2, j=1..2] c\nword w = x(2,1) c x(0,2)")
        decl = s.statements[1]
        refs = [ref.index for ref, _ in decl.value.atoms]
        # x(2,1) -> 3, c -> 7, x(0,2) -> 4
        assert refs == [3, 7, 4]
        assert s.rank == 7

    def test_default_layout_allows_bare_names(self):
        s = parse_scenario("rank 3\nword w = x3 x1^-2")
        refs = [(ref.index, exp) for ref, exp in s.statements[1].value.atoms]
        assert refs == [(3, 1), (1, -2)]

    def test_out_of_range_family_coordinates(self):
        with pytest.raises(ParseError, match="unknown generator"):
            parse_scenario("gens x[i=1..2]\nword w = x(3)")

    def test_named_generator_with_family_args(self):
        s = parse_scenario("gens x[i=0..4, j=1..2] c\naut a = L(x(0,1), x(2,1))")
        decl = s.statements[1]
        assert decl.expr.args[0].index == 1
        assert decl.expr.args[1].index == 3


class TestGraphStatements:
    GRAPH = """
rank 2
graph X { vertex v0 v1; edge s1 v0 v1; edge s2 v0 v1; loop l1 v0; }
"""

    def test_graph_block(self):
        s = parse_scenario(self.GRAPH)
        decl = s.statements[1]
        assert decl.vertices == ("v0", "v1")
        assert ("l1", "v0", "v0") in decl.edges

    def test_gaut_unknown_edge(self):
        with pytest.raises(ParseError, match="not in graph"):
            parse_scenario(self.GRAPH + "gaut t on X { s9 -> s1 }")

    def test_basis_needs_rank_entries(self):
        with pytest.raises(ParseError, match="rank"):
            parse_scenario(self.GRAPH + "basis B on X at v0 { x1 = s1 s2^-1; }")

    def test_basis_on_wrong_graph_for_induced(self):
        text = """
rank 2
graph X { vertex v0 v1; edge s1 v0 v1; edge s2 v0 v1; loop l1 v0; }
graph Y = rose(2)
gaut t = rotation on Y
basis B on X at v0 { x1 = s1 s2^-1; x2 = l1; }
aut f = induced t at v0 basis B
"""
        with pytest.raises(ParseError, match="different graph"):
            parse_scenario(text)


    @pytest.mark.parametrize(
        "ctor", ["rose(0)", "ring(0, 2)", "closedchain(-3)", "hairy(-1)"]
    )
    def test_bad_constructor_arguments_are_located(self, ctor):
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"rank 2\ngraph g = {ctor}")
        assert (exc.value.line, exc.value.col) == (2, 11)
        assert ctor.split("(")[0] in exc.value.message


    @pytest.mark.parametrize(
        "ctor, size", [("rose(100000000)", 100000000), ("ring(101, 100)", 10100)]
    )
    def test_oversized_constructor_is_rejected_before_building(
        self, monkeypatch, ctor, size
    ):
        def refuse_rose(n):
            raise AssertionError("graph built")

        def refuse_ring(r, m):
            raise AssertionError("graph built")

        monkeypatch.setitem(CONSTRUCTORS, "rose", refuse_rose)
        monkeypatch.setitem(CONSTRUCTORS, "ring", refuse_ring)
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"rank 2\ngraph g = {ctor}")
        assert (exc.value.line, exc.value.col) == (2, 11)
        name = ctor.split("(")[0]
        assert exc.value.message == (
            f"{name}: arguments multiply to {size}, above the bound 10000"
        )

    def test_constructor_at_the_size_bound_is_built(self):
        s = parse_scenario("rank 2\ngraph g = ring(100, 100)")
        assert len(s.statements[1].graph.edges) == 10000

    def test_disconnected_block_graph_is_located_at_its_name(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario(
                "rank 2\ngraph X { vertex v0 v1; loop l1 v0; loop l2 v1 }\n"
                "gaut t on X { l1 -> l1 }\n"
            )
        assert (exc.value.line, exc.value.col) == (2, 7)
        assert "not connected" in exc.value.message

    def test_declaration_carries_its_built_graph(self):
        s = parse_scenario("rank 2\ngraph g = rose(2)\ngraph X { vertex v0; loop l1 v0 }")
        assert s.statements[1].graph == CONSTRUCTORS["rose"](2)
        assert s.statements[2].graph.ends == {"l1": ("v0", "v0")}


class TestPrettyRoundTrip:
    def test_inline_example(self):
        src = "rank 2  aut p = P(1,2)  assert p * p == id"
        s = parse_scenario(src, "t")
        assert parse_scenario(s.pretty(), "t") == s

    # Nodes are NamedTuples, whose equality ignores the class, so each
    # round trip also compares reprs, which name the class of every node.

    def test_all_bundled_scenarios_round_trip(self):
        for path in sorted(bundled_corpus_dir().glob("*.scn")):
            s = parse_scenario(path.read_text(), name=path.stem)
            reparsed = parse_scenario(s.pretty(), name=path.stem)
            assert reparsed == s, path.name
            assert repr(reparsed) == repr(s), path.name

    def test_nested_power_round_trips(self):
        s = parse_scenario("rank 2\naut f = (P(1,2)^2)^-3")
        reparsed = parse_scenario(s.pretty())
        assert reparsed == s
        assert repr(reparsed) == repr(s)

    def test_repr_tells_apart_nodes_that_compare_equal(self):
        # The reason for the repr comparisons above.
        assert AutName("f") == NoteStmt("f")
        assert repr(AutName("f")) != repr(NoteStmt("f"))


class TestCheckStatements:
    def test_check_forms(self):
        s = parse_scenario(
            "rank 3\n"
            "check order(sl, 3, 2) == 168\n"
            "check subreps(4) == [0, scalars, full]\n"
            "check closure_span(3, 3) == true large\n"
        )
        checks = s.statements[1:]
        assert checks[0].fn == "order" and checks[0].expected == (168,)
        assert checks[1].expected == (0, "scalars", "full")
        assert checks[2].large

    def test_unknown_check(self):
        with pytest.raises(ParseError, match="unknown check"):
            parse_scenario("rank 3\ncheck nonsense(1) == 2")

    def test_wrong_arity(self):
        with pytest.raises(ParseError, match="argument"):
            parse_scenario("rank 3\ncheck order(3) == 168")

    @pytest.mark.parametrize(
        "call, col, message",
        [
            ("order(sl, 3, 0)", 20, "order needs a modulus >= 2, found 0"),
            ("order(sl, -2, 3)", 17, "order needs a size n >= 1, found -2"),
            ("kernel(3, 1)", 17, "kernel needs a modulus >= 2, found 1"),
            ("order(gl, 3, 2)", 13, "order needs a group family, sl or psl, found gl"),
            ("splitting(4, 2)", 17, "splitting needs the size 3 of the fixture pair, found 4"),
            ("subreps(1)", 15, "subreps needs a size 3 or 4 of the scan, found 1"),
            ("kernel(sl, 2)", 14, "kernel needs a size n >= 1, found sl"),
        ],
    )
    def test_argument_out_of_bounds_is_located(self, call, col, message):
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"rank 3\ncheck {call} == 1")
        assert (exc.value.line, exc.value.col, exc.value.message) == (2, col, message)

    @pytest.mark.parametrize(
        "call, col, table",
        [
            ("order(sl, 30, 3)", 17, "3^30"),
            ("center(psl, 1000000000, 2)", 19, "2^1000000000"),
            ("kernel(6, 3)", 14, "9^6"),
            ("closure_kernel(5, 10, 1)", 22, "100^5"),
            ("splitting(3, 100)", 20, "10000^3"),
            ("splitting_fixture(15, 2)", 25, "2^17"),
        ],
    )
    def test_oversized_row_table_is_located(self, call, col, table):
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"rank 3\ncheck {call} == 1")
        assert (exc.value.line, exc.value.col, exc.value.message) == (
            2, col,
            f"{call.split('(')[0]}: a table of {table} matrix rows "
            "is above the bound 100000",
        )

    def test_row_table_at_the_bound_parses(self):
        s = parse_scenario(
            "rank 3\ncheck order(sl, 5, 10) == 1\ncheck obstruction(100) == rejected"
        )
        assert [c.args for c in s.statements[1:]] == [("sl", 5, 10), (100,)]

    @pytest.mark.parametrize("size", ["101", "1000", "0"])
    def test_obstruction_size_out_of_bounds_is_located(self, size):
        with pytest.raises(ParseError) as exc:
            parse_scenario(f"rank 3\ncheck obstruction({size}) == rejected")
        assert (exc.value.line, exc.value.col, exc.value.message) == (
            2, 19, f"obstruction needs a size n from 1 to {MAX_OBSTRUCTION_SIZE}, found {size}",
        )

    def test_small_obstruction_sizes_still_parse(self):
        s = parse_scenario("rank 3\ncheck obstruction(4) == rejected")
        assert s.statements[1] == CheckStmt("obstruction", (4,), ("rejected",))

    def test_constant_arguments_are_bounded_by_value(self):
        s = parse_scenario("rank 3\nconst Q = 2\ncheck order(psl, 3, Q) == 168")
        assert s.statements[2].args == ("psl", 3, 2)
        with pytest.raises(ParseError, match="modulus >= 2, found 1"):
            parse_scenario("rank 3\nconst Q = 1\ncheck order(psl, 3, Q) == 168")


_TOKEN = re.compile(r"-?\d+|[A-Za-z_][\w-]*|->|==|!=|\.\.|\S")
_ARGUMENT = re.compile(r"(?<=[(,])\s*-?\d+")  # an integer argument of a call
_CORPUS = [path.read_text() for path in sorted(bundled_corpus_dir().glob("*.scn"))]
_VOCAB = sorted(KEYWORDS | set(PUNCT))
# Letters and digits outside ASCII: a non-ASCII letter, a superscript digit,
# which Python calls a digit but no integer reads, and an Arabic-Indic digit.
_FOREIGN = ["é", "²", "٣"]
_STRING = re.compile(r'"[^"\n]*"')


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one to three edits: a token replaced by a
    keyword or punctuation, an integer argument of a call replaced by a small
    integer or by 10^9 (a graph constructor must refuse it before building),
    a line cut short, a keyword or punctuation inserted, a non-ASCII letter or
    digit inserted, or a quote or a newline put inside a string."""
    text = draw(st.sampled_from(_CORPUS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(
            ["token", "argument", "truncate", "insert", "foreign", "string"]
        ))
        if kind == "foreign":
            at = draw(st.integers(0, len(text)))
            text = text[:at] + draw(st.sampled_from(_FOREIGN)) + text[at:]
        elif kind == "string":
            inside = draw(st.sampled_from(['"', "\n"]))
            spans = [m.span() for m in _STRING.finditer(text)]
            if spans:
                start, end = draw(st.sampled_from(spans))
                at = draw(st.integers(start + 1, end - 1))
                text = text[:at] + inside + text[at:]
            else:
                text += 'note "a' + inside + 'b"\n'
        elif kind == "truncate":
            lines = text.split("\n")
            i = draw(st.integers(0, len(lines) - 1))
            lines[i] = lines[i][: draw(st.integers(0, len(lines[i])))]
            text = "\n".join(lines)
        elif kind == "insert":
            at = draw(st.integers(0, len(text)))
            text = f"{text[:at]} {draw(st.sampled_from(_VOCAB))} {text[at:]}"
        else:
            pattern = _TOKEN if kind == "token" else _ARGUMENT
            spans = [m.span() for m in pattern.finditer(text)]
            if not spans:
                continue
            start, end = draw(st.sampled_from(spans))
            if kind == "token":
                new = draw(st.sampled_from(_VOCAB))
            else:
                new = str(draw(st.integers(-3, 3) | st.just(10**9)))
            text = text[:start] + new + text[end:]
    return text


@settings(deadline=None, max_examples=400, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenarios_parse_or_raise_located_parse_error(text):
    try:
        parse_scenario(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1


# Argument kinds of some checks, and values each kind may take; the constant
# N stands in for a value when it is declared with one of them.
_CHECKS = (
    ("order", ("family", "size", "modulus")), ("center", ("family", "size", "modulus")),
    ("kernel", ("size", "modulus")), ("splitting", ("fixture", "modulus")),
    ("subreps", ("scan",)),
)
_ARG_VALUES = {"family": ["sl", "psl"], "size": [1, 2, 3], "modulus": [2, 3], "fixture": [3],
               "scan": [3, 4]}


@st.composite
def generated_scenarios(draw):
    """Scenario text from a small grammar: a rank or gens layout, constants,
    words, automorphisms by expression and by image block, constructor and
    block graphs with gaut and basis blocks, induced actions, every assertion
    kind, checks with list results and ``large``, and notes."""

    def pick(options):
        return draw(st.sampled_from(list(options)))

    def sep():
        return pick(["; ", ", "])

    lines = ["# anchor: generated"] + pick([[], ["scenario generated"]])
    if draw(st.booleans()):
        rank = draw(st.integers(1, 4))
        lines.append(f"rank {rank}")
        gens = [f"x{i}" for i in range(1, rank + 1)]
    else:
        items, gens = [], []
        for name in draw(st.lists(st.sampled_from("abpq"), min_size=1, max_size=3, unique=True)):
            if name in "pq":
                items.append(name)
                gens.append(name)
                continue
            dims = [(var, lo, lo + draw(st.integers(0, 1)))
                    for var, lo in zip("ij", draw(st.lists(st.integers(-1, 1), min_size=1, max_size=2)))]
            items.append(f"{name}[{', '.join(f'{v}={lo}..{hi}' for v, lo, hi in dims)}]")
            gens.extend(f"{name}({', '.join(map(str, c))})"
                        for c in product(*(range(lo, hi + 1) for _, lo, hi in dims)))
        rank = len(gens)
        lines.append("gens " + " ".join(items))
    const = draw(st.none() | st.integers(0, 9))
    if const is not None:
        lines.append(f"const N = {const}")

    def word():
        if draw(st.integers(0, 4)) == 0:
            return "e"
        atoms = [(pick(gens), pick([1, 1, 2, -1, -3])) for _ in range(draw(st.integers(1, 3)))]
        return " ".join(g if k == 1 else f"{g}^{k}" for g, k in atoms)

    def named_map():
        kind = pick(NAMED_KINDS if rank >= 2 else ["I"])
        count = 1 if kind == "I" else 2
        refs = draw(st.lists(st.integers(1, rank), min_size=count, max_size=count, unique=True))
        args = map(str, refs) if draw(st.booleans()) else (gens[i - 1] for i in refs)
        return f"{kind}({', '.join(args)})"

    auts, graphs, gauts, bases = [], {}, {}, []

    def path(graph):
        if draw(st.integers(0, 3)) == 0:
            return "e"
        steps = [(pick(graph.ends), pick([1, 1, -1, 2])) for _ in range(draw(st.integers(1, 3)))]
        return " ".join(e if k == 1 else f"{e}^{k}" for e, k in steps)

    def induced():
        t = pick(gauts)
        graph_name = gauts[t]
        graph = graphs[graph_name]
        if draw(st.booleans()):
            text = f"induced {t} at {pick(graph.vertices)}"
        else:
            text = f"induced {t} delta {path(graph)}"
        on_graph = [b for b, g in bases if g == graph_name]
        if on_graph and draw(st.booleans()):
            text += f" basis {pick(on_graph)}"
        return text

    def aut(depth=2):
        choice = draw(st.integers(0, 5 if depth else 2))
        if choice == 2 and auts:
            return pick(auts)
        if choice == 0:
            return "id"
        if choice == 3:
            return f"({aut(depth - 1)})^{draw(st.integers(-2, 2))}"
        if choice == 4:
            return " * ".join(aut(depth - 1) for _ in range(draw(st.integers(2, 3))))
        if choice == 5 and gauts:
            return f"({induced()})"
        return named_map()

    for i in range(draw(st.integers(0, 2))):
        lines.append(f"word w{i} = {word()}")
    for i in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            lines.append(f"aut f{i} = {aut()}")
        else:
            images = draw(st.lists(st.sampled_from(gens), unique=True, max_size=rank))
            lines.append(f"aut f{i} {{ " + "".join(f"{g} -> {word()}{sep()}" for g in images) + "}")
        auts.append(f"f{i}")
    for i in range(draw(st.integers(0, 2))):
        name = f"G{i}"
        if draw(st.booleans()):
            ctor = pick(sorted(CONSTRUCTORS))
            args = [draw(st.integers(1, 3)) for _ in range(CONSTRUCTORS[ctor].__code__.co_argcount)]
            lines.append(f"graph {name} = {ctor}({', '.join(map(str, args))})")
            graph = CONSTRUCTORS[ctor](*args)
        else:
            vs = [f"v{k}" for k in range(draw(st.integers(1, 3)))]
            edges = [(f"d{k}", vs[k - 1], vs[k]) for k in range(1, len(vs))]
            edges += [(f"o{k}", pick(vs), pick(vs)) for k in range(draw(st.integers(1, 2)))]
            parts = [f"vertex {' '.join(vs)}"] + [
                f"loop {e} {s}" if s == d and draw(st.booleans()) else f"edge {e} {s} {d}"
                for e, s, d in edges
            ]
            lines.append(f"graph {name} {{ " + "; ".join(parts) + " }")
            graph = Graph(tuple(vs), tuple(edges))
        graphs[name] = graph
        t = f"t{i}"
        if draw(st.booleans()):
            lines.append(f"gaut {t} = {pick(['rotation', 'pairswap'])} on {name}")
        else:
            sources = draw(st.lists(st.sampled_from(sorted(graph.ends)), unique=True))
            body = "".join(
                f"{e} -> {'~' if draw(st.booleans()) else ''}{pick(graph.ends)}{sep()}"
                for e in sources
            )
            lines.append(f"gaut {t} on {name} {{ {body}}}")
        gauts[t] = name
        if draw(st.booleans()):
            body = "".join(f"{g} = {path(graph)}{sep()}" for g in draw(st.permutations(gens)))
            lines.append(f"basis B{i} on {name} at {pick(graph.vertices)} {{ {body}}}")
            bases.append((f"B{i}", name))
    if gauts:
        lines.append(f"aut h = {induced()}")
        auts.append("h")

    def matrix():
        form = draw(st.integers(0, 3))
        if form == 3 and rank >= 2:
            k, r = draw(st.lists(st.integers(1, rank), min_size=2, max_size=2, unique=True))
            power = pick(["", "^2", "^-1"])
            return f"elementary({k}, {r}){power}"
        if form == 2:
            rows = [[draw(st.integers(-2, 2)) for _ in range(rank)] for _ in range(rank)]
            return "[" + "; ".join(" ".join(map(str, row)) for row in rows) + "]"
        return pick(["id", "-id"])

    op = lambda: pick(["==", "!="])  # noqa: E731
    forms = [
        lambda: f"{aut()} {op()} {aut()}",
        lambda: f"{aut()} ~ {aut()}",
        lambda: f"{pick(['order', 'outorder'])} {aut()} {op()} "
                f"{pick(['unbounded', '1', '2', '6'])}",
        lambda: f"det {aut()} == {pick(['1', '-1'])}",
        lambda: f"matrix {aut()}{pick(['', ' mod 2', ' mod 3'])} {op()} {matrix()}",
        lambda: f"level {draw(st.integers(2, 4))} {aut()}",
        lambda: f"torelli {aut()}",
        lambda: f"inner {aut()}" + pick(["", f" witness {word()}"]),
        lambda: f"not inner {aut()}",
        lambda: f"{aut()} fixes {word()}",
        lambda: f"{aut()} maps {word()} -> {word()}",
    ]
    for form in draw(st.lists(st.sampled_from(forms), min_size=1, max_size=6)):
        lines.append(f"assert {form()}")

    def check_arg(kind):
        values = _ARG_VALUES[kind]
        return pick(values + (["N"] if const in values else []))

    for _ in range(draw(st.integers(0, 2))):
        fn, kinds = pick(_CHECKS)
        args = ", ".join(str(check_arg(kind)) for kind in kinds)
        values = [pick(["true", "found", "7", "scalars"]) for _ in range(draw(st.integers(1, 3)))]
        expected = values[0] if len(values) == 1 else f"[{', '.join(values)}]"
        lines.append(f"check {fn}({args}) == {expected}" + pick(["", " large"]))
    if draw(st.booleans()):
        lines.append('note "generated"')
    return "\n".join(lines) + "\n"


@settings(deadline=None, max_examples=300, derandomize=True)
@given(generated_scenarios())
def test_generated_scenarios_round_trip(text):
    s = parse_scenario(text)
    reparsed = parse_scenario(s.pretty())
    assert reparsed == s
    assert repr(reparsed) == repr(s)
