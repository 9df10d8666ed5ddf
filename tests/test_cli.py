"""The command-line surface: eval grammar, verify reports, exit codes."""

import json
import subprocess
import sys

import pytest

from pregerst.cli import main
from pregerst.grading import SHIFT1
from pregerst.words import Element, mu


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_mu2_example(capsys):
    code, out, _ = run_cli(
        ["eval", "--op", "mu2", "--expr", "1/1 * T(a,b)", "--gens", "a:2,b:2"], capsys)
    assert code == 0
    assert out.strip() == "1/1 * T(a,b) + 1/1 * T(b,a)"


def test_eval_delta_of_single_letter_is_zero(capsys):
    code, out, _ = run_cli(
        ["eval", "--op", "delta", "--expr", "1/1 * T(a)", "--gens", "a:2"], capsys)
    assert code == 0
    assert out.strip() == "0"


def test_eval_kappa_two_term_output(capsys):
    code, out, _ = run_cli(
        ["eval", "--op", "kappa", "--expr", "1/1 * P(T(a,b); S())",
         "--gens", "a:2,b:2"], capsys)
    assert code == 0
    assert out.strip() == ("1/1 * P(T(a); S()) # P(T(b); S()) + "
                           "1/1 * P(T(b); S()) # P(T(a); S())")


def test_eval_shuffle_and_sym_product(capsys):
    code, out, _ = run_cli(
        ["eval", "--op", "shuffle", "--expr", "1/1 * T(a)", "--expr2", "1/1 * T(b)",
         "--gens", "a:2,b:2"], capsys)
    assert code == 0
    assert out.strip() == "1/1 * T(a,b) + -1/1 * T(b,a)"
    code, out, _ = run_cli(
        ["eval", "--op", "sym_product", "--expr", "1/1 * S(T(a))",
         "--expr2", "1/1 * S(T(b))", "--gens", "a:2,b:2"], capsys)
    assert code == 0
    assert out.strip() == "1/1 * S(T(a),T(b))"


def test_eval_parse_error_reports_position(capsys):
    code, out, err = run_cli(
        ["eval", "--op", "normalize", "--expr", "1/1 * T(a,", "--gens", "a:2"], capsys)
    assert code == 2
    assert "position" in err


def test_eval_unknown_op(capsys):
    code, _, err = run_cli(
        ["eval", "--op", "frobnicate", "--expr", "1/1 * T(a)", "--gens", "a:2"], capsys)
    assert code == 2


def test_mu_of_arity_zero_is_refused(capsys):
    with pytest.raises(ValueError, match="mu arity must be >= 1"):
        mu(0, Element(), SHIFT1)
    code, out, err = run_cli(["eval", "--op", "mu0", "--expr", "0"], capsys)
    assert code == 2
    assert out == ""
    assert err.strip() == "error: mu arity must be >= 1"


def test_verify_text_and_exit_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "zinf-square", "--samples", "4"], capsys)
    assert code == 0
    assert "summary: 4 pass" in out


def test_verify_structured_report(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "linf-square", "--samples", "3",
         "--report", "structured"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    for line in lines:
        record = json.loads(line)
        assert "suite" in record
    assert json.loads(lines[-1])["summary"] is True


def test_verify_failing_suite_exits_one(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "q-coderiv-kappa", "--samples", "8"], capsys)
    assert code == 1


def test_verify_incompatible_model(capsys):
    code, _, err = run_cli(
        ["verify", "--suite", "zinbiel-axioms", "--model", "formal"], capsys)
    assert code == 2
    assert "model" in err


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.jsonl"
    code, out, _ = run_cli(
        ["verify", "--suite", "zinf-square", "--samples", "2",
         "--report", "structured", "--out", str(target)], capsys)
    assert code == 0
    assert out == ""
    assert target.read_text().count("\n") >= 3


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "pregerst", "eval", "--op", "normalize",
         "--expr", "2/4 * T(a)", "--gens", "a:3"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "1/2 * T(a)"


def test_verify_with_no_instances_exits_two(capsys):
    code, out, _ = run_cli(
        ["verify", "--suite", "mu-shuffle-lemma", "--max-tensor-len", "1"], capsys)
    assert code == 2
    assert "summary: 0 pass, 0 fail, 0 abort" in out


@pytest.mark.parametrize("expr", ["1/1 * T(a,b)", "1/1 * P(a; S())", "1/1 * a"])
def test_eval_embed_refuses_a_word_that_is_not_symmetric(expr, capsys):
    code, out, err = run_cli(
        ["eval", "--op", "embed", "--expr", expr, "--gens", "a:2,b:2"], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err
