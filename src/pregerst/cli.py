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
from functools import partial

from .cooperations import cocrochet_lie, delta_cocom, delta_leibniz, delta_perm, kappa, kappa_prime
from .errors import TermBudgetExceeded
from .grading import BASE, SHIFT1, SHIFT2, GeneratorRegistry
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from .words import (
    _name_at,
    element_to_text,
    embed_element,
    mu,
    normalize,
    parse_element,
    shuffle_product,
    sym_product,
)

_VIEWS = {"base": BASE, "deg": SHIFT1, "degp": SHIFT2}


def _shuffle(a, b, view):
    return a.map_pairs(b, lambda w1, w2: shuffle_product(w1, w2, view))


# eval --op name -> (number of elements, default view, the operation on the
# normalized elements and the view); mu<N> stands for mu2, mu3, ..., whose
# operation is mu with that arity
_OPS = {
    "normalize": (1, "deg", lambda a, view: a),
    "mu<N>": (1, "deg", mu),
    "shuffle": (2, "deg", _shuffle),
    "sym_product": (2, "degp", sym_product),
    "embed": (1, "degp", embed_element),
    "delta": (1, "deg", delta_leibniz),
    "delta_cocom": (1, "deg", delta_cocom),
    "delta_perm": (1, "degp", delta_perm),
    "kappa": (1, "degp", kappa),
    "kappa_prime": (1, "degp", kappa_prime),
    "cocrochet": (1, "deg", cocrochet_lie),
}


def _eval_op(op):
    """The _OPS entry of an --op value, mu<N>'s operation bound to its N."""
    match = re.fullmatch(r"mu(\d+)", op)
    if match:
        count, view, fn = _OPS["mu<N>"]
        return count, view, partial(fn, int(match.group(1)))
    if op not in _OPS or op == "mu<N>":
        raise ValueError("unknown operation %r" % op)
    return _OPS[op]


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
                   help="one of: " + ", ".join(_OPS))
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
    except ValueError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    if args.report == "structured":
        _emit("\n".join(report.structured_lines()), args.out)
    else:
        _emit("\n".join(report.text_lines()), args.out)
    return report.exit_code()


def _parse_gens(text):
    registry = GeneratorRegistry()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ValueError("generator declaration %r is not name:degree" % part)
        name, _, deg = part.partition(":")
        name = name.strip()
        if not name or _name_at(name, 0) != name:
            raise ValueError("generator name %r is not a NAME of the element grammar" % name)
        registry.declare(name, int(deg))
    return registry


def _cmd_eval(args) -> int:
    try:
        registry = _parse_gens(args.gens)
        elem = parse_element(args.expr, registry)
        elem2 = parse_element(args.expr2, registry) if args.expr2 else None
        count, default_view, fn = _eval_op(args.op)
        view = _VIEWS[args.view or default_view]
        if count == 2 and elem2 is None:
            raise ValueError("operation %s needs --expr2" % args.op)
        elems = [normalize(e, view) for e in (elem, elem2)[:count]]
        _emit(element_to_text(fn(*elems, view)), args.out)
        return 0
    except (ValueError, KeyError, TermBudgetExceeded, RecursionError) as exc:
        # the parser, normalize and the printer recurse per nesting level
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
