import json
import random
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from autfn import endos
from autfn.runner import (
    Evaluator, bundled_anchor_list, bundled_corpus_dir, lint_scenarios,
    replay_all, run_text,
)
from autfn.scenario import AutIdent, Parser


def _golden(name):
    """Records of a bundled-corpus replay as checked in under tests/data."""
    return json.loads((Path(__file__).parent / "data" / name).read_text())


class TestRunOutcomes:
    def test_pass_and_fail_are_independent(self):
        report = run_text(
            "rank 2\n"
            "aut p = P(1,2)\n"
            "assert p * p == id\n"
            "assert p == id\n"
            "assert order p == 2\n"
        )
        statuses = [r.status for r in report.records]
        assert statuses == ["pass", "fail", "pass"]
        assert not report.ok()

    def test_evaluation_error_recorded_not_raised(self):
        # x1 -> x1^2 is not an automorphism; inverting fails at evaluation.
        report = run_text(
            "rank 2\n"
            "aut f { x1 -> x1^2 }\n"
            "aut g = f^-1\n"
            "assert g == id\n"
        )
        statuses = [r.status for r in report.records]
        assert statuses == ["error", "error"]
        assert "basis" in report.records[0].detail

    def test_witness_mismatch_fails_with_detail(self):
        report = run_text(
            "rank 4\n"
            "aut g { x1 -> x2; x2 -> x3; x3 -> x4 x1 x4^-1; x4 -> x4 }\n"
            "assert inner g^3 witness x1\n"
        )
        assert report.records[0].status == "fail"
        assert "x4" in report.records[0].detail

    def test_note_recorded(self):
        report = run_text('rank 2\nnote "just a remark"')
        assert report.records[0].status == "note"
        assert report.ok()

    def test_large_check_skipped_by_default(self):
        report = run_text("rank 3\ncheck closure_span(3, 3) == true large")
        assert report.records[0].status == "skipped"
        assert report.ok()

    def test_enumeration_cap_is_an_error_record(self):
        # SL_4(Z/3) has 12,130,560 elements; the default cap of 10^6 stops
        # the enumeration at about 90 MB of memory instead of about 0.8 GB.
        (record,) = run_text("rank 3\ncheck order(sl, 4, 3) == 12130560\n").records
        assert record.status == "error"
        assert record.detail == (
            "EnumerationCapError: closure exceeded cap of 1000000 elements"
        )

    def test_identity_in_every_position(self):
        # ``id`` parses to AutIdent(), an empty NamedTuple and so falsy: a
        # node is never tested for truth, only for its class or for None.
        assert not AutIdent()
        report = run_text(
            "rank 2\n"
            "aut f = id\n"
            "aut g = id^-3 * id\n"
            "assert f == id\n"
            "assert id == g * id^2\n"
            "assert id != P(1,2)\n"
            "assert id ~ C(1,2)\n"
            "assert order id == 1\n"
            "assert outorder id * C(1,2) == 1\n"
            "assert det id == 1\n"
            "assert matrix id == id\n"
            "assert matrix id mod 3 == id\n"
            "assert level 5 id\n"
            "assert torelli id\n"
            "assert inner id witness e\n"
            "assert id fixes x1 x2^-1\n"
            "assert id maps x2 -> x2\n"
        )
        assert [r.status for r in report.records] == ["pass"] * 14, report.human()

    def test_json_schema(self):
        report = run_text("rank 2\nassert id == id")
        payload = json.loads(report.to_json())
        assert payload == [
            {
                "scenario": "scenario",
                "assertion": "assert id == id",
                "status": "pass",
                "detail": "",
                "anchor": "",
            }
        ]


def _random_product(seed, rank=4, count=40):
    """Text of a product of ``count`` random named maps."""
    rng = random.Random(seed)
    parts = []
    for _ in range(count):
        kind = rng.choice("LRCPI")
        i, j = rng.sample(range(1, rank + 1), 2)
        parts.append(f"I({i})" if kind == "I" else f"{kind}({i},{j})")
    return " * ".join(parts)


def _rose4(g):
    return (
        f"rank 4\naut g = {g}\n"
        "graph X = rose(4)\ngaut rot = rotation on X\naut f = induced rot at v0\n"
    )


class TestInverses:
    def test_each_map_is_inverted_once(self, monkeypatch):
        calls = []
        original = endos.nielsen_reduce

        def counted(words):
            calls.append(words)
            return original(words)

        monkeypatch.setattr(endos, "nielsen_reduce", counted)
        report = run_text(
            "rank 3\naut g = L(1,2) * C(3,1) * R(2,3)\n"
            "assert g^-1 * g == id\n"
            "assert g * g^-1 == id\n"
            "assert g^-2 * g^2 == id\n"
            "assert (g^-1)^-1 == g\n"
        )
        assert report.ok(), report.human()
        assert len(calls) == 1


class TestConjugateOrder:
    """``order`` and ``outorder`` of a literal conjugate run on its middle."""

    @pytest.mark.parametrize("seed", [1, 2])
    def test_forty_factor_conjugate_of_a_swap(self, seed):
        # The whole product's images pass the 4096-letter cap before its
        # square is reached, so the loop on it reads unbounded(cap).
        report = run_text(
            _rose4(_random_product(seed))
            + "assert order g * P(1,2) * g^-1 == 2\n"
            "assert order g^-1 * P(1,2) * g == 2\n"
            "assert outorder g * f * g^-1 == 4\n"
        )
        assert [(r.status, r.detail) for r in report.records] == [
            ("pass", "computed 2"), ("pass", "computed 2"), ("pass", "computed 4"),
        ]

    def test_infinite_order_conjugate_still_reads_the_cap(self):
        report = run_text(
            _rose4(_random_product(1)) + "assert order g * L(1,2) * g^-1 == unbounded\n"
        )
        assert report.records[0].status == "pass"
        assert report.records[0].detail == "computed unbounded(cap)"

    def test_letter_cap_on_the_middle_falls_back_to_the_whole_product(self):
        # m's images pass the letter cap, while g^-1 * m * g is P(1,2).
        report = run_text(
            _rose4(_random_product(1))
            + "aut m = g * P(1,2) * g^-1\n"
            "assert order m == 2\n"
            "assert order g^-1 * m * g == 2\n"
        )
        assert [(r.status, r.detail) for r in report.records] == [
            ("fail", "computed unbounded(cap)"), ("pass", "computed 2"),
        ]

    def test_non_automorphism_conjugator_is_the_same_error(self):
        report = run_text(
            "rank 4\naut g { x1 -> x1^2 }\n"
            "assert order g * P(1,2) * g^-1 == 2\n"
            "assert order g^-1 * P(1,2) * g == 2\n"
            "assert outorder g * P(1,2) * g^-1 == 2\n"
        )
        assert {(r.status, r.detail) for r in report.records} == {
            ("error", "NotABasisError: images do not form a free basis"),
        }


_NAMED = st.sampled_from(
    ["L(1,2)", "R(2,3)", "C(3,1)", "P(1,2)", "P(2,3)", "I(1)", "I(3)", "L(3,2)"]
)


@given(
    st.lists(_NAMED, min_size=1, max_size=5),
    st.lists(_NAMED, min_size=1, max_size=4),
    st.booleans(),
    st.booleans(),
)
@settings(deadline=None, max_examples=120)
def test_conjugate_rule_agrees_with_the_whole_product(g, h, inverse_first, outer):
    """Wherever the capped loop on the whole product ends on a found k, the
    rule gives the same k."""
    parser = Parser(f"rank 3\naut g = {' * '.join(g)}\naut h = {' * '.join(h)}\n")
    ev = Evaluator(parser.parse())
    ev.run()
    text = "g^-1 * h * g" if inverse_first else "g * h * g^-1"
    expr = parser.parse_fragment(text, parser.parse_aut_expr)
    caps = dict(max_power=12, max_word_len=60)
    whole = (endos.out_order if outer else endos.order)(ev.aut_of(expr), **caps)
    if whole is not None:
        assert ev.order_of(expr, outer, **caps) == whole


class TestReplayAll:
    def test_bundled_corpus_is_green(self):
        report = replay_all()
        assert report.ok(), report.human()

    def test_deterministic(self):
        """A replay matches the report checked in under tests/data, byte for
        byte once serialized, so engine changes cannot move any verdict."""
        report = replay_all()
        assert [r.to_dict() for r in report.records] == _golden("replay_golden.json")

    def test_large_checks_match_golden(self):
        text = (bundled_corpus_dir() / "finite-groups-large.scn").read_text()
        report = run_text(text, "finite-groups-large", include_large=True)
        assert [r.to_dict() for r in report.records] == _golden(
            "replay_golden_large.json"
        )

    def test_empty_directory(self, tmp_path):
        report = replay_all(tmp_path)
        assert report.records == []
        assert report.ok()

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            replay_all(tmp_path / "missing")
        (tmp_path / "file.scn").write_text("rank 2\n")
        with pytest.raises(NotADirectoryError):
            replay_all(tmp_path / "file.scn")

    def test_single_wrong_assertion_gives_exactly_one_failure(self, tmp_path):
        good = "# anchor: a\nscenario s1\nrank 2\nassert P(1,2) * P(1,2) == id\n"
        bad = (
            "# anchor: b\nscenario s2\nrank 2\n"
            "assert P(1,2) * P(1,2) == id\n"
            "assert I(1) == id\n"
        )
        (tmp_path / "a.scn").write_text(good)
        (tmp_path / "b.scn").write_text(bad)
        report = replay_all(tmp_path)
        assert report.failures == 1
        assert report.passes == 2

    def test_unparsable_file_reported_others_run(self, tmp_path):
        (tmp_path / "bad.scn").write_text("rank rank rank")
        (tmp_path / "good.scn").write_text("rank 2\nassert id == id\n")
        report = replay_all(tmp_path)
        assert report.failures == 1
        assert report.passes == 1

    def test_bad_graph_constructor_is_one_parse_error(self, tmp_path):
        (tmp_path / "a.scn").write_text("rank 2\nassert id == id\n")
        (tmp_path / "b.scn").write_text("rank 2\ngraph g = rose(0)\n")
        (tmp_path / "c.scn").write_text("rank 2\nassert P(1,2) * P(1,2) == id\n")
        report = replay_all(tmp_path)
        assert [(r.scenario, r.assertion, r.status) for r in report.records] == [
            ("a", "assert id == id", "pass"),
            ("b", "(parse)", "error"),
            ("c", "assert P(1, 2) * P(1, 2) == id", "pass"),
        ]
        assert "line 2, column 11" in report.records[1].detail

    def test_stray_character_is_one_parse_error(self, tmp_path):
        (tmp_path / "a.scn").write_text("rank 1\nword é = x1\n")
        (tmp_path / "b.scn").write_text("rank 2\nassert P(1,2) * P(1,2) == id\n")
        report = replay_all(tmp_path)
        assert [(r.scenario, r.assertion, r.status, r.detail) for r in report.records] == [
            ("a", "(parse)", "error", "line 2, column 6: unexpected character 'é'"),
            ("b", "assert P(1, 2) * P(1, 2) == id", "pass", ""),
        ]


class TestLint:
    def test_bundled_corpus_clean(self):
        assert lint_scenarios() == []

    def test_every_bundled_file_has_anchor(self):
        anchors = set(bundled_anchor_list())
        assert anchors
        for path in sorted(bundled_corpus_dir().glob("*.scn")):
            text = path.read_text()
            assert "# anchor:" in text, path.name

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(NotADirectoryError):
            lint_scenarios(tmp_path / "missing")

    def test_missing_anchor_flagged(self, tmp_path):
        (tmp_path / "x.scn").write_text("rank 2\nassert id == id\n")
        problems = lint_scenarios(tmp_path)
        assert any("missing" in p for p in problems)

    def test_unknown_anchor_flagged(self, tmp_path):
        (tmp_path / "x.scn").write_text("# anchor: not-a-known-label\nrank 2\n")
        problems = lint_scenarios(tmp_path)
        assert any("not in anchors.txt" in p for p in problems)
