"""Command-line entry point.

verify runs a named suite with deterministic sampling and prints a report;
eval parses an element in the canonical grammar, applies one operation and
prints the normalized result.

Exit codes: 0 all defects zero, 1 at least one nonzero defect, 2 no verdict
(aborted instances or usage errors).
"""

from __future__ import annotations

import argparse
import re
import sys

from .cooperations import cocrochet_lie, delta_cocom, delta_leibniz, delta_perm, kappa, kappa_prime
from .errors import ParseError, SchemaError, TermBudgetExceeded, UnsupportedModelError
from .grading import BASE, SHIFT1, SHIFT2, GeneratorRegistry
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .words import (
    element_to_text,
    embed_element,
    mu,
    normalize,
    parse_element,
    shuffle_product,
    sym_product,
)

_VIEWS = {"base": BASE, "deg": SHIFT1, "degp": SHIFT2}

# op name -> (arity, default view, needs tensor words)
_UNARY_OPS = {"normalize", "embed", "delta", "delta_cocom", "delta_perm",
              "kappa", "kappa_prime", "cocrochet"}
_BINARY_OPS = {"shuffle", "sym_product"}
_DEFAULT_VIEW = {
    "normalize": "deg", "embed": "degp", "delta": "deg", "delta_cocom": "deg",
    "delta_perm": "degp", "kappa": "degp", "kappa_prime": "degp",
    "cocrochet": "deg", "shuffle": "deg", "sym_product": "degp",
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="pregerst",
        description="exact verification of the coalgebraic identities of "
                    "pre-Gerstenhaber structures")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run one verification suite")
    v.add_argument("--suite", required=True, choices=SUITE_NAMES)
    v.add_argument("--model", choices=["forms", "formal"], default=None)
    v.add_argument("--n-coords", type=int, default=2)
    v.add_argument("--max-poly-degree", type=int, default=3)
    v.add_argument("--max-tensor-len", type=int, default=None)
    v.add_argument("--max-tail-factors", type=int, default=None)
    v.add_argument("--samples", type=int, default=None)
    v.add_argument("--seed", type=int, default=42)
    v.add_argument("--report", choices=["text", "structured"], default="text")
    v.add_argument("--term-cap", type=int, default=10**6)
    v.add_argument("--out", default=None, help="write the report to a file")

    e = sub.add_parser("eval", help="apply one operation to an element")
    e.add_argument("--op", required=True,
                   help="one of: normalize, mu<N>, shuffle, sym_product, embed, "
                        "delta, delta_cocom, delta_perm, kappa, kappa_prime, cocrochet")
    e.add_argument("--expr", required=True, help="element in the canonical grammar")
    e.add_argument("--expr2", default=None, help="second element for binary operations")
    e.add_argument("--gens", default="",
                   help="generator declarations as name:base_degree, comma separated")
    e.add_argument("--view", choices=sorted(_VIEWS), default=None,
                   help="grading view for signs (default depends on the operation)")
    e.add_argument("--out", default=None)
    return parser


def _emit(text, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_verify(args) -> int:
    config = SuiteConfig(
        suite=args.suite, model=args.model, n_coords=args.n_coords,
        max_poly_degree=args.max_poly_degree, max_tensor_len=args.max_tensor_len,
        max_tail_factors=args.max_tail_factors, samples=args.samples,
        seed=args.seed, report_format=args.report, term_cap=args.term_cap)
    try:
        report = run_suite(config)
    except (ValueError, UnsupportedModelError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if args.report == "structured":
        _emit("\n".join(report.structured_lines()), args.out)
    else:
        _emit("\n".join(report.text_lines()), args.out)
    return report.exit_code()


def _parse_gens(text):
    registry = GeneratorRegistry()
    if not text.strip():
        return registry
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError("generator declaration %r is not name:degree" % part)
        name, _, deg = part.partition(":")
        registry.declare(name.strip(), int(deg))
    return registry


def _cmd_eval(args) -> int:
    try:
        registry = _parse_gens(args.gens)
        elem = parse_element(args.expr, registry)
        elem2 = parse_element(args.expr2, registry) if args.expr2 else None
        op = args.op
        mu_match = re.fullmatch(r"mu(\d+)", op)
        view_name = args.view or _DEFAULT_VIEW.get("mu" if mu_match else op, "deg")
        view = _VIEWS[view_name]
        if mu_match:
            arity = int(mu_match.group(1))
            result = mu(arity, normalize(elem, view), view)
            _emit(element_to_text(result), args.out)
            return 0
        if op in _BINARY_OPS:
            if elem2 is None:
                raise ValueError("operation %s needs --expr2" % op)
            a = normalize(elem, view)
            b = normalize(elem2, view)
            if op == "shuffle":
                out = a.map_pairs(b, lambda w1, w2: shuffle_product(w1, w2, view))
                _emit(element_to_text(out), args.out)
            else:
                _emit(element_to_text(sym_product(a, b, view)), args.out)
            return 0
        if op not in _UNARY_OPS:
            raise ValueError("unknown operation %r" % op)
        a = normalize(elem, view)
        if op == "normalize":
            _emit(element_to_text(a), args.out)
            return 0
        if op == "embed":
            _emit(element_to_text(embed_element(a, view)), args.out)
            return 0
        coproducts = {
            "delta": delta_leibniz,
            "delta_cocom": delta_cocom,
            "delta_perm": delta_perm,
            "kappa": kappa,
            "kappa_prime": kappa_prime,
            "cocrochet": cocrochet_lie,
        }
        _emit(element_to_text(coproducts[op](a, view)), args.out)
        return 0
    except (ParseError, SchemaError, ValueError, KeyError,
            UnsupportedModelError, TermBudgetExceeded) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return _cmd_verify(args)
    return _cmd_eval(args)


if __name__ == "__main__":
    sys.exit(main())
