"""The command-line surface: eval grammar, verify reports, exit codes."""

import json
import subprocess
import sys

import pytest

from pregerst.cli import _OPS, main
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


# one run of every eval operation: its --op value, its arguments and its
# output, over generators a:1, b:2, c:3
EVAL_CASES = {
    "normalize": ("normalize", ["--expr", "1/1 * S(T(b),T(a))"], "1/1 * S(T(a),T(b))"),
    "mu<N>": ("mu3", ["--expr", "1/1 * T(a,b,c)"],
              "1/1 * T(a,b,c) + -1/1 * T(b,a,c) + -1/1 * T(b,c,a) + 1/1 * T(c,b,a)"),
    "shuffle": ("shuffle", ["--expr", "1/1 * T(a)", "--expr2", "1/1 * T(b,c)"],
                "1/1 * T(a,b,c) + 1/1 * T(b,a,c) + 1/1 * T(b,c,a)"),
    "sym_product": ("sym_product", ["--expr", "1/1 * S(T(a))", "--expr2", "1/1 * S(T(b))"],
                    "1/1 * S(T(a),T(b))"),
    "embed": ("embed", ["--expr", "1/1 * S(T(a),T(b))"],
              "1/1 * P(T(a); S(T(b))) + 1/1 * P(T(b); S(T(a)))"),
    "delta": ("delta", ["--expr", "1/1 * T(a,b,c)"],
              "1/1 * T(a) # T(b,c) + -1/1 * T(a) # T(c,b) + 1/1 * T(a,b) # T(c)"),
    "delta_cocom": ("delta_cocom", ["--expr", "1/1 * S(T(a),T(b))"],
                    "1/1 * S(T(a)) # S(T(b)) + 1/1 * S(T(b)) # S(T(a))"),
    "delta_perm": ("delta_perm", ["--expr", "1/1 * P(T(a); S(T(b),T(c)))"],
                   "1/1 * P(T(a); S()) # P(T(b); S(T(c))) + 1/1 * P(T(a); S()) # P(T(c); S(T(b)))"
                   " + 1/1 * P(T(a); S(T(b))) # P(T(c); S()) + 1/1 * P(T(a); S(T(c))) # P(T(b); S())"),
    "kappa": ("kappa", ["--expr", "1/1 * P(T(a,b); S(T(c)))"],
              "-1/1 * P(T(a); S()) # P(T(b); S(T(c))) + -1/1 * P(T(a); S()) # P(T(c); S(T(b)))"
              " + -1/1 * P(T(a); S(T(c))) # P(T(b); S()) + -1/1 * P(T(b); S()) # P(T(a); S(T(c)))"
              " + 1/1 * P(T(b); S()) # P(T(c); S(T(a))) + 1/1 * P(T(b); S(T(c))) # P(T(a); S())"),
    "kappa_prime": ("kappa_prime", ["--expr", "1/1 * S(T(a,b),T(c))"],
                    "-1/1 * P(T(a); S()) # P(T(b); S(T(c))) + -1/1 * P(T(a); S()) # P(T(c); S(T(b)))"
                    " + -1/1 * P(T(a); S(T(c))) # P(T(b); S()) + -1/1 * P(T(b); S()) # P(T(a); S(T(c)))"
                    " + 1/1 * P(T(b); S()) # P(T(c); S(T(a))) + 1/1 * P(T(b); S(T(c))) # P(T(a); S())"
                    " + 1/1 * P(T(c); S(T(a))) # P(T(b); S()) + 1/1 * P(T(c); S(T(b))) # P(T(a); S())"),
    "cocrochet": ("cocrochet", ["--expr", "1/1 * T(a,b)"], "1/1 * T(a) # T(b) + -1/1 * T(b) # T(a)"),
}


@pytest.mark.parametrize("name", list(_OPS))
def test_every_eval_operation_runs(name, capsys):
    op, rest, expected = EVAL_CASES[name]
    code, out, err = run_cli(["eval", "--op", op] + rest + ["--gens", "a:1,b:2,c:3"], capsys)
    assert (code, out.strip(), err) == (0, expected, "")


@pytest.mark.parametrize("op", ["mu", "mu<N>"])
def test_eval_mu_needs_its_arity(op, capsys):
    code, out, err = run_cli(["eval", "--op", op, "--expr", "1/1 * T(a)", "--gens", "a:2"], capsys)
    assert (code, out) == (2, "")
    assert err.strip() == "error: unknown operation %r" % op


def test_eval_binary_operation_needs_a_second_element(capsys):
    code, out, err = run_cli(
        ["eval", "--op", "shuffle", "--expr", "1/1 * T(a)", "--gens", "a:2"], capsys)
    assert (code, out) == (2, "")
    assert err.strip() == "error: operation shuffle needs --expr2"


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


def test_eval_refuses_a_nest_too_deep_for_the_parser(capsys):
    # the parser, normalize and the printer recurse once per level
    nest = lambda depth: "1/1 * " + "T(" * depth + "a" + ")" * depth
    code, out, err = run_cli(
        ["eval", "--op", "normalize", "--expr", nest(300), "--gens", "a:2"], capsys)
    assert (code, out, err) == (0, nest(300) + "\n", "")
    code, out, err = run_cli(
        ["eval", "--op", "normalize", "--expr", nest(2000), "--gens", "a:2"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("name", ["a b", "1x", "x-y", ""])
def test_eval_refuses_a_generator_name_the_grammar_cannot_read(name, capsys):
    code, out, err = run_cli(
        ["eval", "--op", "normalize", "--expr", "1/1 * T(a)",
         "--gens", "a:2,%s:2" % name], capsys)
    assert (code, out) == (2, "")
    assert err.strip() == (
        "error: generator name %r is not a NAME of the element grammar" % name)


@pytest.mark.parametrize("name", ["T", "_a", "x.y", "u1.du2"])
def test_eval_accepts_every_generator_name_the_grammar_reads(name, capsys):
    code, out, _ = run_cli(
        ["eval", "--op", "normalize", "--expr", "1/1 * T(%s)" % name,
         "--gens", "%s:2" % name], capsys)
    assert (code, out) == (0, "1/1 * T(%s)\n" % name)
