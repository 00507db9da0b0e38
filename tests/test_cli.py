import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import termdepth
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

    def test_arity_is_the_number_of_arguments(self, capsys, sig_file):
        # the outer term uses only x1, but two arguments make it binary
        code, out, _ = run(capsys, "compose", sig_file, "--outer", "f(x1,x1)", "--args", "f(x1,x2)", "x2")
        assert code == 0
        assert out.splitlines() == ["term: f(f(x1,x2),f(x1,x2))", "depth: 2", "predicted: 2", "agree: true"]


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

    def test_nonpositive_trials_exits_2(self, capsys, sig_file):
        code, out, err = run(capsys, "verify", sig_file, "--theorem", "thm3.3", "--trials", "0")
        assert (code, out) == (2, "")
        assert err == "error: trials must be an integer >= 1, got 0\n"

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


# Inputs with comments, blank lines and spacing, so that the `inputs` field
# shows the canonical renders, not the text as given.
PINNED_HYP = "# swap the binary symbol\nf1 -> f1( x2 , x1 )\n\nf2 -> f2(x1, f1(x3,x3), x2)  # keep\n"
PINNED_TERM = " f2( f1(x1,x1), f1( x1 ,x2) , x3 ) "
PINNED_COMPOSE = ["--outer", "f2(x2, f1(x1,x3), x3)", "--args", "f1(x1,x2)", " x2 ", "f2(x1 ,x1,x2)"]

# The exact --json stdout of each command on the inputs above.
PINNED_JSON = {
    "depth": ("depth", "{sig}", "--expr", PINNED_TERM),
    "depth-wrt": ("depth", "{sig}", "--wrt", "3", "--expr", PINNED_TERM),
    "compose": ("compose", "{sig}", *PINNED_COMPOSE),
    "compose-predict-only": ("compose", "{sig}", *PINNED_COMPOSE, "--predict-only"),
    "apply": ("apply", "{sig}", "{hyp}", "--expr", PINNED_TERM),
    "check-full": ("check", "{sig}", "--full", " f2(f1(x2, x1), x3, f1(x1,x1)) "),
    "check-regular": ("check", "{sig}", "--regular", "{hyp}"),
    "verify-thm3.3": ("verify", "{sig}", "--theorem", "thm3.3", "--trials", "30", "--seed", "5"),
    # non-default generator flags, and one discrepancy for both writers
    "verify-thm5.1": (
        "verify", "{sig}", "--theorem", "thm5.1", "--trials", "30", "--seed", "3",
        "--max-depth", "4", "--projection-rate", "0.3", "--deletion-bias", "0.4",
    ),
}

# The exit code of each case that does not exit 0.
PINNED_CODE = {"verify-thm5.1": 1}

PINNED_STDOUT = {
    'apply': (
        '{"command": "apply", "inputs": {"signature": "f1/2\\nf2/3", "hyp": "f1 -> f1(x2,x1)\\nf2 -> f2(x1,f1(x3,x3),x2)", "term": "f2(f1(x1,x1),f1(x1,x2),x3)"}'
        ', "result": {"term": "f2(f1(x1,x1),f1(x3,x3),f1(x2,x1))", "depth": 2, "predicted": 2, "agree": true}, "discrepancies": []}\n'
    ),
    'check-full': (
        '{"command": "check", "inputs": {"signature": "f1/2\\nf2/3", "term": "f2(f1(x2,x1),x3,f1(x1,x1))"}'
        ', "result": {"predicate": "full", "holds": false}, "discrepancies": []}\n'
    ),
    'check-regular': (
        '{"command": "check", "inputs": {"signature": "f1/2\\nf2/3", "hyp": "f1 -> f1(x2,x1)\\nf2 -> f2(x1,f1(x3,x3),x2)"}'
        ', "result": {"predicate": "regular", "holds": true}, "discrepancies": []}\n'
    ),
    'compose': (
        '{"command": "compose", "inputs": {"signature": "f1/2\\nf2/3", "outer": "f2(x2,f1(x1,x3),x3)", "args": ["f1(x1,x2)", "x2", "f2(x1,x1,x2)"]}'
        ', "result": {"term": "f2(x2,f1(f1(x1,x2),f2(x1,x1,x2)),f2(x1,x1,x2))", "depth": 3, "predicted": 3, "agree": true}, "discrepancies": []}\n'
    ),
    'compose-predict-only': (
        '{"command": "compose", "inputs": {"signature": "f1/2\\nf2/3", "outer": "f2(x2,f1(x1,x3),x3)", "args": ["f1(x1,x2)", "x2", "f2(x1,x1,x2)"]}'
        ', "result": {"predicted": 3}, "discrepancies": []}\n'
    ),
    'depth': (
        '{"command": "depth", "inputs": {"signature": "f1/2\\nf2/3", "term": "f2(f1(x1,x1),f1(x1,x2),x3)"}'
        ', "result": {"depth": 2, "per_variable": {"1": 2, "2": 2, "3": 1}, "vars": [1, 2, 3]}, "discrepancies": []}\n'
    ),
    'depth-wrt': (
        '{"command": "depth", "inputs": {"signature": "f1/2\\nf2/3", "term": "f2(f1(x1,x1),f1(x1,x2),x3)"}'
        ', "result": {"wrt": 3, "depth": 1}, "discrepancies": []}\n'
    ),
    'verify-thm3.3': (
        '{"command": "verify", "inputs": {"signature": "f1/2\\nf2/3", "theorem": "thm3.3", "trials": 30, "seed": 5, "max_depth": 6, "projection_rate": 0.1, "deletion_bias": 0.1}'
        ', "result": {"checks": {"thm3.3": {"trials": 30, "discrepancies": 0}}}, "discrepancies": []}\n'
    ),
    'verify-thm5.1': (
        '{"command": "verify", "inputs": {"signature": "f1/2\\nf2/3", "theorem": "thm5.1", "trials": 30, "seed": 3, "max_depth": 4, "projection_rate": 0.3, "deletion_bias": 0.4}'
        ', "result": {"checks": {"thm5.1": {"trials": 30, "discrepancies": 1}}}'
        ', "discrepancies": [{"kind": "thm5.1", "inputs": {"signature": "f1/2\\nf2/3", "sigma": "f1 -> f1(x1,x1)\\nf2 -> x1", "t": "f2(f1(x2,x1),x2,x2)"}'
        ', "predicted": 0, "actual": 1, "seed_state": "3:12"}]}\n'
    ),
}

# The exact text-mode stdout of the same invocations.
PINNED_TEXT = {
    "apply": "term: f2(f1(x1,x1),f1(x3,x3),f1(x2,x1))\ndepth: 2\npredicted: 2\nagree: true\n",
    "check-full": "false\n",
    "check-regular": "true\n",
    "compose": "term: f2(x2,f1(f1(x1,x2),f2(x1,x1,x2)),f2(x1,x1,x2))\ndepth: 3\npredicted: 3\nagree: true\n",
    "compose-predict-only": "predicted: 3\n",
    "depth": "depth: 2\nx1: 2\nx2: 2\nx3: 1\nvars: x1 x2 x3\n",
    "depth-wrt": "1\n",
    "verify-thm3.3": "thm3.3: 30 trials, 0 discrepancies\n",
    "verify-thm5.1": (
        "thm5.1: 30 trials, 1 discrepancies\n"
        '{"actual": 1, "inputs": {"sigma": "f1 -> f1(x1,x1)\\nf2 -> x1", "signature": "f1/2\\nf2/3", "t": "f2(f1(x2,x1),x2,x2)"}'
        ', "kind": "thm5.1", "predicted": 0, "seed_state": "3:12"}\n'
    ),
}


@pytest.mark.parametrize("name", sorted(PINNED_JSON))
def test_json_output_is_pinned(capsys, tmp_path, name):
    sig = tmp_path / "mixed.sig"
    sig.write_text("# two symbols\nf1 / 2\n\nf2/3\n")
    hyp = tmp_path / "mixed.hyp"
    hyp.write_text(PINNED_HYP)
    argv = [a.format(sig=sig, hyp=hyp) for a in PINNED_JSON[name]]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == PINNED_CODE.get(name, 0)
    assert out == PINNED_STDOUT[name]
    code, out, _ = run(capsys, *argv)
    assert code == PINNED_CODE.get(name, 0)
    assert out == PINNED_TEXT[name]


def test_a_reader_closing_the_pipe_is_not_an_error(tmp_path):
    # The report of f(x1,x100000) is about 1 MB, more than a pipe buffer
    # holds, so the writer is still writing when the reader goes away.
    sig = tmp_path / "binary.sig"
    sig.write_text("f/2\n")
    env = {**os.environ, "PYTHONPATH": str(Path(termdepth.__file__).resolve().parents[1])}
    argv = [sys.executable, "-m", "termdepth.cli", "depth", str(sig), "--expr", "f(x1,x100000)"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env) as proc:
        assert proc.stdout.readline() == b"depth: 1\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == 0, err
    assert "Traceback" not in err


def test_text_mode_does_not_render_inputs(capsys, monkeypatch, tmp_path):
    # text mode prints no input, so it must not pay for rendering one
    def refuse(*args):
        raise AssertionError("rendered an input in text mode")

    for name in ("render_term", "render_signature", "render_hyp"):
        monkeypatch.setattr(f"termdepth.textio.{name}", refuse)
    monkeypatch.setattr("termdepth.cli.render_term", refuse)
    sig = tmp_path / "binary.sig"
    sig.write_text("f/2\n")
    hyp = tmp_path / "swap.hyp"
    hyp.write_text("f -> f(x2,x1)\n")
    for argv in (
        ["depth", str(sig), "--expr", "f(x1,f(x1,x2))"],
        ["depth", str(sig), "--wrt", "2", "--expr", "f(x1,f(x1,x2))"],
        ["compose", str(sig), "--outer", "f(x2,x1)", "--args", "x1", "x2", "--predict-only"],
        ["check", str(sig), "--full", "f(x2,x1)"],
        ["check", str(sig), "--regular", str(hyp)],
        ["verify", str(sig), "--theorem", "thm3.3", "--trials", "5"],
    ):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
