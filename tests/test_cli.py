import json

import pytest

from autfn.cli import main
from autfn.runner import bundled_corpus_dir

CORPUS = bundled_corpus_dir()
ROSE = str(CORPUS / "rose-five-rotation.scn")


class TestScenarioCommands:
    def test_parse_summary(self, capsys):
        assert main(["parse", ROSE]) == 0
        out = capsys.readouterr().out
        assert "rank 5" in out

    def test_parse_error_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scn"
        bad.write_text("rank 4\naut f { x1 -> x9 }")
        assert main(["parse", str(bad)]) == 1
        assert "x9" in capsys.readouterr().err

    def test_run_single_file(self, capsys):
        assert main(["run", ROSE]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_run_json(self, capsys):
        assert main(["run", ROSE, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert all(
            set(rec) == {"scenario", "assertion", "status", "detail", "anchor"}
            for rec in payload
        )

    def test_run_failure_exit_code(self, tmp_path, capsys):
        f = tmp_path / "f.scn"
        f.write_text("rank 2\nassert I(1) == id\n")
        assert main(["run", str(f)]) == 1

    def test_replay_directory(self, tmp_path, capsys):
        (tmp_path / "one.scn").write_text(
            "# anchor: a\nrank 2\nassert P(1,2)^2 == id\n"
        )
        assert main(["replay", str(tmp_path)]) == 0
        assert "1 passed" in capsys.readouterr().out

    def test_lint_lists_a_file_with_a_stray_character(self, tmp_path, capsys):
        (tmp_path / "bad.scn").write_text("# anchor: x\nrank 2\nassert order P(1,2) == ²\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert capsys.readouterr().out == (
            "bad.scn: parse error: line 3, column 24: unexpected character '²'\n"
        )

    def test_lint_bundled(self, capsys):
        assert main(["lint"]) == 0
        assert "known anchors" in capsys.readouterr().out


class TestExpressionCommands:
    def test_compose(self, capsys):
        assert main(["compose", "--rank", "3", "L(1,2) * L(1,2)"]) == 0
        assert "x2^2 x1" in capsys.readouterr().out

    def test_apply(self, capsys):
        assert main(["apply", "--rank", "4", "C(1,2)", "x1 x3"]) == 0
        assert capsys.readouterr().out.strip() == "x2 x1 x2^-1 x3"

    def test_order_with_caps(self, capsys):
        assert main(["order", "--rank", "3", "--cap-power", "8", "C(1,2)"]) == 0
        assert "unbounded" in capsys.readouterr().out

    def test_order_of_a_literal_conjugate_runs_on_its_middle(self, capsys):
        # Under --cap-len 4 the loop on the whole product trips the letter
        # cap, while the middle P(1,2) has order 2 well within both caps.
        g = "(L(1,2) * R(1,3) * C(2,3))"
        for text, want in ((f"({g} * P(1,2)) * {g}^-1", "unbounded (cap reached)"),
                           (f"{g} * P(1,2) * {g}^-1", "2")):
            assert main(["order", "--rank", "3", "--cap-len", "4", text]) == 0
            assert capsys.readouterr().out.strip() == want

    def test_inner_exit_codes(self, capsys):
        assert main(["inner", "--rank", "3", "C(1,2) * C(2,1)"]) == 1
        assert main(["inner", "--rank", "1", "id"]) == 0

    def test_abelianize_matrix_format(self, capsys):
        assert main(["abelianize", "--rank", "3", "L(1,2)"]) == 0
        assert capsys.readouterr().out.strip() == "1 0 0; 1 1 0; 0 0 1"

    def test_abelianize_mod(self, capsys):
        assert main(["abelianize", "--rank", "2", "I(1)", "--mod", "3"]) == 0
        assert capsys.readouterr().out.strip() == "2 0; 0 1"

    def test_det(self, capsys):
        assert main(["det", "--rank", "4", "I(2)"]) == 0
        assert capsys.readouterr().out.strip() == "-1"


class TestRealizeAndClosure:
    def test_realize_prints_action(self, capsys):
        assert main([
            "realize", str(CORPUS / "conjugacy-shift-rank-four.scn"),
            "--gaut", "rot", "--delta", "s1", "--basis", "B",
        ]) == 0
        out = capsys.readouterr().out
        assert "x1 -> x2" in out
        assert "x4 x1 x4^-1" in out

    def test_realize_takes_exactly_one_of_at_and_delta(self, capsys):
        path = str(CORPUS / "conjugacy-shift-rank-four.scn")
        for base in (["--at", "v0", "--delta", "s1"], []):
            with pytest.raises(SystemExit) as exc:
                main(["realize", path, "--gaut", "rot", *base, "--basis", "B"])
            assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --delta: not allowed with argument --at" in err
        assert "one of the arguments --at --delta is required" in err

    def test_closure_json_schema(self, capsys):
        assert main([
            "closure", "--n", "3", "--mod", "4", "--k", "2", "--r", "1",
            "--power", "2",
        ]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"op", "n", "modulus", "order", "result", "elapsed_ms"}
        assert payload["order"] == 256


class TestInputErrors:
    """An input error prints one line on stderr and exits 1, no traceback."""

    @staticmethod
    def one_line(capsys) -> str:
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err, err
        return err

    def test_expression_error_is_located_in_the_expression(self, capsys):
        assert main(["compose", "--rank", "2", "L(1,3)"]) == 1
        err = self.one_line(capsys)
        assert "line 1, column 5" in err and "out of range for rank 2" in err

    def test_word_error_is_located_in_the_word(self, capsys):
        assert main(["apply", "--rank", "2", "P(1,2)", "x1 x3"]) == 1
        assert "'x1 x3': line 1, column 4" in self.one_line(capsys)

    def test_stray_character_in_an_expression(self, capsys):
        assert main(["compose", "--rank", "2", "L(1,é)"]) == 1
        assert self.one_line(capsys) == (
            "'L(1,é)': line 1, column 5: unexpected character 'é'\n"
        )

    def test_trailing_text_is_rejected(self, capsys):
        assert main(["compose", "--rank", "2", "P(1,2) P(1,2)"]) == 1
        assert "column 8" in self.one_line(capsys)

    def test_abelianize_modulus_one(self, capsys):
        assert main(["abelianize", "--rank", "2", "I(1)", "--mod", "1"]) == 1
        assert "at least 2" in self.one_line(capsys)

    def test_det_negative_modulus(self, capsys):
        assert main(["det", "--rank", "2", "I(1)", "--mod", "-3"]) == 1
        assert "at least 2" in self.one_line(capsys)

    def test_closure_equal_indices(self, capsys):
        assert main([
            "closure", "--n", "2", "--mod", "2", "--k", "1", "--r", "1", "--power", "1",
        ]) == 1
        assert "distinct indices" in self.one_line(capsys)

    @pytest.mark.parametrize("k, r", [("1", "4"), ("5", "1")])
    def test_closure_index_out_of_range(self, capsys, k, r):
        assert main([
            "closure", "--n", "3", "--mod", "4", "--k", k, "--r", r, "--power", "1",
        ]) == 1
        assert f"indices ({k},{r}) out of range for n=3" in self.one_line(capsys)

    def test_closure_zero_modulus(self, capsys):
        assert main([
            "closure", "--n", "2", "--mod", "0", "--k", "1", "--r", "2", "--power", "1",
        ]) == 1
        assert "--mod at least 2" in self.one_line(capsys)

    def test_order_zero_cap(self, capsys):
        assert main(["order", "--rank", "2", "--cap-power", "0", "P(1,2)"]) == 1
        assert "caps must be positive" in self.one_line(capsys)

    def test_parse_missing_file(self, capsys):
        assert main(["parse", "/nonexistent/x.scn"]) == 1
        assert self.one_line(capsys).startswith("/nonexistent/x.scn: ")

    def test_realize_unknown_gaut_names_the_expression(self, capsys):
        path = str(CORPUS / "conjugacy-shift-rank-four.scn")
        assert main(["realize", path, "--gaut", "nope", "--delta", "s1", "--basis", "B"]) == 1
        err = self.one_line(capsys)
        assert err.startswith(f"{path}: 'induced nope delta s1 basis B': line 1, column 9: ")
        assert "unknown graph automorphism 'nope'" in err

    def test_realize_empty_basepoint_is_quoted_as_given(self, capsys):
        path = str(CORPUS / "conjugacy-shift-rank-four.scn")
        assert main(["realize", path, "--gaut", "rot", "--at", ""]) == 1
        assert self.one_line(capsys).startswith(f"{path}: 'induced rot at ': ")

    def test_replay_missing_directory(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path / "missing")]) == 1
        assert "not a directory" in self.one_line(capsys)
        assert capsys.readouterr().out == ""

    def test_lint_missing_directory(self, tmp_path, capsys):
        assert main(["lint", str(tmp_path / "missing")]) == 1
        assert "not a directory" in self.one_line(capsys)

    def test_replay_empty_directory_is_a_clean_report(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path)]) == 0
        assert "0 records" in capsys.readouterr().out
