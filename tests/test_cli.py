import json

import pytest

from termdepth.cli import main


@pytest.fixture
def sig_file(tmp_path):
    path = tmp_path / "binary.sig"
    path.write_text("f/2\n")
    return str(path)


@pytest.fixture
def mixed_sig_file(tmp_path):
    path = tmp_path / "mixed.sig"
    path.write_text("f1/2\nf2/3\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDepthCommand:
    def test_expr_report(self, capsys, sig_file):
        code, out, _ = run(capsys, "depth", sig_file, "--expr", "f(x1,f(x1,x2))")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "depth: 2"
        assert "x1: 2" in lines and "x2: 2" in lines
        assert lines[-1] == "vars: x1 x2"

    def test_variable_depth(self, capsys, sig_file):
        code, out, _ = run(capsys, "depth", sig_file, "--expr", "x1")
        assert code == 0
        assert out.splitlines()[0] == "depth: 0"

    def test_wrt(self, capsys, tmp_path, mixed_sig_file):
        code, out, _ = run(
            capsys, "depth", mixed_sig_file, "--wrt", "3", "--expr", "f2(f1(x1,x1),f1(x1,x2),x3)"
        )
        assert code == 0
        assert out.strip() == "1"

    def test_term_file(self, capsys, sig_file, tmp_path):
        term = tmp_path / "t.term"
        term.write_text("f(x2,x1)\n")
        code, out, _ = run(capsys, "depth", sig_file, str(term))
        assert code == 0
        assert out.splitlines()[0] == "depth: 1"

    def test_json_schema(self, capsys, sig_file):
        code, out, _ = run(capsys, "depth", sig_file, "--expr", "f(x1,x2)", "--json")
        assert code == 0
        record = json.loads(out)
        assert list(record) == ["command", "inputs", "result", "discrepancies"]
        assert record["command"] == "depth"
        assert record["inputs"]["term"] == "f(x1,x2)"
        assert record["result"] == {"depth": 1, "per_variable": {"1": 1, "2": 1}, "vars": [1, 2]}
        assert record["discrepancies"] == []

    def test_rejects_both_expr_and_file(self, capsys, sig_file, tmp_path):
        term = tmp_path / "t.term"
        term.write_text("x1")
        code, _, err = run(capsys, "depth", sig_file, str(term), "--expr", "x1")
        assert code == 2
        assert "not both" in err

    def test_rejects_missing_term(self, capsys, sig_file):
        code, _, err = run(capsys, "depth", sig_file)
        assert code == 2

    def test_parse_error_exits_2(self, capsys, sig_file):
        code, _, err = run(capsys, "depth", sig_file, "--expr", "f(x1")
        assert code == 2
        assert "error:" in err and "bytes" in err

    def test_parse_error_spans_count_from_the_input_as_given(self, capsys, sig_file, tmp_path):
        term = tmp_path / "t.term"
        term.write_text("   \n  f(x1,)\n")
        code, _, err = run(capsys, "depth", sig_file, str(term))
        assert code == 2
        assert "(bytes 11..12)" in err
        code, _, err = run(capsys, "depth", sig_file, "--expr", "  f(x1,)")
        assert code == 2
        assert "(bytes 7..8)" in err


class TestComposeCommand:
    def test_worked_example(self, capsys, sig_file):
        code, out, _ = run(
            capsys,
            "compose",
            sig_file,
            "--outer",
            "f(f(x2,x2),x1)",
            "--args",
            "f(x1,f(x1,x2))",
            "f(x2,x1)",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "term: f(f(f(x2,x1),f(x2,x1)),f(x1,f(x1,x2)))"
        assert lines[1] == "depth: 3"
        assert lines[2] == "predicted: 3"
        assert lines[3] == "agree: true"

    def test_structure_sensitive_sibling(self, capsys, sig_file):
        code, out, _ = run(
            capsys,
            "compose",
            sig_file,
            "--outer",
            "f(f(x1,x1),x2)",
            "--args",
            "f(x1,f(x1,x2))",
            "f(x2,x1)",
        )
        assert code == 0
        assert "depth: 4" in out and "predicted: 4" in out

    def test_variable_outer(self, capsys, sig_file):
        code, out, _ = run(capsys, "compose", sig_file, "--outer", "x2", "--args", "x1", "f(x2,x1)")
        assert code == 0
        assert out.splitlines()[0] == "term: f(x2,x1)"

    def test_predict_only(self, capsys, sig_file):
        code, out, _ = run(
            capsys,
            "compose",
            sig_file,
            "--predict-only",
            "--outer",
            "f(f(x2,x2),x1)",
            "--args",
            "f(x1,f(x1,x2))",
            "f(x2,x1)",
        )
        assert code == 0
        assert out.strip() == "predicted: 3"

    def test_arity_error_exits_2(self, capsys, sig_file):
        code, _, err = run(capsys, "compose", sig_file, "--outer", "f(x1,x2)", "--args", "x1")
        assert code == 2


class TestApplyCommand:
    def test_identity(self, capsys, sig_file, tmp_path):
        hyp = tmp_path / "id.hyp"
        hyp.write_text("f -> f(x1,x2)\n")
        code, out, _ = run(capsys, "apply", sig_file, str(hyp), "--expr", "f(x1,f(x1,x2))")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "term: f(x1,f(x1,x2))"
        assert lines[1] == "depth: 2"
        assert lines[2] == "predicted: 2"
        assert lines[3] == "agree: true"

    def test_duplicating_image(self, capsys, sig_file, tmp_path):
        hyp = tmp_path / "dup.hyp"
        hyp.write_text("f -> f(x2,x2)\n")
        code, out, _ = run(capsys, "apply", sig_file, str(hyp), "--expr", "f(f(x1,x1),x2)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "term: f(x2,x2)"
        assert lines[1] == "depth: 1"
        assert lines[2] == "predicted: 1"

    def test_projection(self, capsys, sig_file, tmp_path):
        hyp = tmp_path / "proj.hyp"
        hyp.write_text("f -> x1\n")
        code, out, _ = run(capsys, "apply", sig_file, str(hyp), "--expr", "f(f(x1,x2),x3)")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "term: x1"
        assert lines[1] == "depth: 0"
        assert lines[2] == "predicted: 0"

    def test_totality_error_exits_2(self, capsys, mixed_sig_file, tmp_path):
        hyp = tmp_path / "partial.hyp"
        hyp.write_text("f1 -> f1(x1,x2)\n")
        code, _, err = run(capsys, "apply", mixed_sig_file, str(hyp), "--expr", "x1")
        assert code == 2
        assert "missing image" in err


class TestCheckCommand:
    def test_full_term_true(self, capsys, sig_file):
        code, out, _ = run(capsys, "check", sig_file, "--full", "f(x2,x1)")
        assert code == 0
        assert out.strip() == "true"

    def test_full_term_false(self, capsys, sig_file):
        code, out, _ = run(capsys, "check", sig_file, "--full", "x1")
        assert code == 0
        assert out.strip() == "false"

    def test_regular_false(self, capsys, sig_file, tmp_path):
        hyp = tmp_path / "del.hyp"
        hyp.write_text("f -> f(x1,x1)\n")
        code, out, _ = run(capsys, "check", sig_file, "--regular", str(hyp))
        assert code == 0
        assert out.strip() == "false"

    def test_full_hyp(self, capsys, sig_file, tmp_path):
        hyp = tmp_path / "full.hyp"
        hyp.write_text("f -> f(f(x2,x1),f(x1,x2))\n")
        code, out, _ = run(capsys, "check", sig_file, "--full-hyp", str(hyp))
        assert code == 0
        assert out.strip() == "true"

    def test_json(self, capsys, sig_file):
        code, out, _ = run(capsys, "check", sig_file, "--full", "f(x2,x1)", "--json")
        assert code == 0
        record = json.loads(out)
        assert record["result"] == {"predicate": "full", "holds": True}


class TestVerifyCommand:
    def test_composition_formula_passes(self, capsys, mixed_sig_file):
        code, out, _ = run(
            capsys,
            "verify",
            mixed_sig_file,
            "--theorem",
            "thm3.3",
            "--trials",
            "300",
            "--seed",
            "42",
        )
        assert code == 0
        assert out.strip() == "thm3.3: 300 trials, 0 discrepancies"

    def test_homomorphism_law_passes(self, capsys, sig_file):
        code, out, _ = run(
            capsys, "verify", sig_file, "--theorem", "cor4.6", "--trials", "200", "--seed", "7"
        )
        assert code == 0

    def test_occurrence_predictor_reports_findings(self, capsys, sig_file):
        code, out, _ = run(
            capsys,
            "verify",
            sig_file,
            "--theorem",
            "thm5.1",
            "--trials",
            "400",
            "--seed",
            "16",
            "--max-depth",
            "4",
            "--projection-rate",
            "0.3",
            "--deletion-bias",
            "0.4",
        )
        assert code == 1
        lines = out.splitlines()
        assert lines[0].startswith("thm5.1: 400 trials,")
        # every discrepancy is a single-line JSON record
        for line in lines[1:]:
            record = json.loads(line)
            assert record["predicted"] != record["actual"]
            assert set(record["inputs"]) == {"signature", "sigma", "t"}

    def test_verify_is_deterministic(self, capsys, sig_file):
        argv = [
            "verify", sig_file, "--theorem", "thm5.1", "--trials", "200",
            "--seed", "16", "--max-depth", "4",
            "--projection-rate", "0.3", "--deletion-bias", "0.4",
        ]
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert (code1, out1) == (code2, out2)

    def test_all_skips_unsupported_shapes(self, capsys, mixed_sig_file):
        code, out, _ = run(
            capsys, "verify", mixed_sig_file, "--theorem", "all", "--trials", "20", "--seed", "3"
        )
        assert "thm2.3: skipped" in out
        assert "cor4.5: skipped" in out
        assert "thm3.3: 20 trials" in out

    def test_shape_precondition_exits_2(self, capsys, mixed_sig_file):
        code, _, err = run(
            capsys, "verify", mixed_sig_file, "--theorem", "thm2.3", "--trials", "10"
        )
        assert code == 2
        assert "single" in err or "share one arity" in err

    def test_json_document(self, capsys, sig_file):
        code, out, _ = run(
            capsys,
            "verify",
            sig_file,
            "--theorem",
            "lemma2.2",
            "--trials",
            "50",
            "--seed",
            "5",
            "--json",
        )
        assert code == 0
        record = json.loads(out)
        assert record["command"] == "verify"
        assert record["result"]["checks"]["lemma2.2"] == {"trials": 50, "discrepancies": 0}

    def test_bad_theorem_name_exits_2(self, capsys, sig_file):
        with pytest.raises(SystemExit) as info:
            main(["verify", sig_file, "--theorem", "thm7.7"])
        assert info.value.code == 2


class TestUsageErrors:
    def test_unreadable_signature_exits_2(self, capsys):
        code, _, err = run(capsys, "depth", "/nonexistent.sig", "--expr", "x1")
        assert code == 2

    def test_bad_signature_content_exits_2(self, capsys, tmp_path):
        bad = tmp_path / "bad.sig"
        bad.write_text("f/0\n")
        code, _, err = run(capsys, "depth", str(bad), "--expr", "x1")
        assert code == 2
        assert "error:" in err
