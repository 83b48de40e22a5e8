import re

import pytest
from hypothesis import given, settings, strategies as st

from autfn.runner import bundled_corpus_dir
from autfn.scenario import KEYWORDS, PUNCT, ParseError, parse_scenario


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


class TestPrettyRoundTrip:
    def test_inline_example(self):
        src = "rank 2  aut p = P(1,2)  assert p * p == id"
        s = parse_scenario(src, "t")
        assert parse_scenario(s.pretty(), "t") == s

    def test_all_bundled_scenarios_round_trip(self):
        for path in sorted(bundled_corpus_dir().glob("*.scn")):
            s = parse_scenario(path.read_text(), name=path.stem)
            reparsed = parse_scenario(s.pretty(), name=path.stem)
            assert reparsed == s, path.name


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


_TOKEN = re.compile(r"-?\d+|[A-Za-z_][\w-]*|->|==|!=|\.\.|\S")
_ARGUMENT = re.compile(r"(?<=[(,])\s*-?\d+")  # an integer argument of a call
_CORPUS = [path.read_text() for path in sorted(bundled_corpus_dir().glob("*.scn"))]
_VOCAB = sorted(KEYWORDS | set(PUNCT))


@st.composite
def mutated_scenarios(draw):
    """A bundled scenario with one to three edits: a token replaced by a
    keyword or punctuation, an integer argument of a call replaced by a small
    integer, a line cut short, or a keyword or punctuation inserted."""
    text = draw(st.sampled_from(_CORPUS))
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["token", "argument", "truncate", "insert"]))
        if kind == "truncate":
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
                new = str(draw(st.integers(-3, 3)))
            text = text[:start] + new + text[end:]
    return text


@settings(deadline=None, max_examples=400, derandomize=True)
@given(mutated_scenarios())
def test_mutated_scenarios_parse_or_raise_located_parse_error(text):
    try:
        parse_scenario(text)
    except ParseError as exc:
        assert exc.line >= 1 and exc.col >= 1
