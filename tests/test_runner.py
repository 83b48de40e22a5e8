import json
from pathlib import Path

import pytest

from autfn.runner import (
    bundled_anchor_list, bundled_corpus_dir, lint_scenarios, replay_all,
    run_text,
)


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
