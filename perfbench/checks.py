"""Correctness checks whose expected values do not come from the program.

Each check returns a list of failure messages; an empty list means it held.
The expected values are closed forms, signs counted here by inversions, the
README's hand-written examples and a hand-worked table of forms products.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from fractions import Fraction

from workloads import expected_count

# seeded pairs of distinct-generator words that the shuffle sign check draws
SHUFFLE_DRAWS = 60


def check_reports(configs, texts):
    """Every verdict is exactly zero and every exhaustive or distinct-generator
    suite has its closed-form instance count.  ``texts`` holds one structured
    report per resolved config."""
    problems = []
    for config, text in zip(configs, texts):
        lines = [json.loads(line) for line in text.split("\n")]
        records, summary = lines[:-1], lines[-1]
        bad = [r for r in records if r["status"] != "pass" or r["defect"] != "zero"]
        if bad:
            problems.append("%s: %d nonzero verdicts, first #%d %s"
                            % (config.suite, len(bad), bad[0]["index"], bad[0]["defect"][:200]))
        counted = summary["passed"] + summary["failed"] + summary["aborted"]
        if not summary.get("summary") or counted != len(records):
            problems.append("%s: summary counts %d verdicts for %d records"
                            % (config.suite, counted, len(records)))
        expected = expected_count(config)
        if expected is not None and len(records) != expected:
            problems.append("%s: %d instances, closed form gives %d"
                            % (config.suite, len(records), expected))
        if expected is None and not 0 < len(records) <= config.samples:
            problems.append("%s: %d instances from %d samples"
                            % (config.suite, len(records), config.samples))
    return problems


def _koszul_shuffle_sign(degs, origin):
    """Sign of a shuffle read off its result word: ``origin[k]`` is the
    concatenated position of the letter in slot k; each pair of odd letters
    that changed order contributes a factor -1."""
    crossings = sum(1 for a, b in itertools.combinations(range(len(origin)), 2)
                    if origin[a] > origin[b] and degs[origin[a]] & 1 and degs[origin[b]] & 1)
    return -1 if crossings & 1 else 1


def check_shuffle_signs(seed):
    """On seeded words of distinct generators, shuffle_product has exactly
    C(p+q, p) terms, each with coefficient +-1 equal to the Koszul sign."""
    from pregerst.grading import SHIFT1, GeneratorRegistry
    from pregerst.words import Gen, Tensor, shuffle_product

    rng = random.Random("shuffle-signs|%d" % seed)
    problems = []
    for _ in range(SHUFFLE_DRAWS):
        p, q = rng.randint(1, 4), rng.randint(1, 4)
        base = [rng.randint(1, 4) for _ in range(p + q)]
        degs = [b - 1 for b in base]          # deg = |x| - 1
        reg = GeneratorRegistry()
        gens = [Gen(reg.declare("y%d" % i, b)) for i, b in enumerate(base)]
        result = shuffle_product(Tensor(tuple(gens[:p])), Tensor(tuple(gens[p:])), SHIFT1)
        label = "shuffle p=%d q=%d base=%s" % (p, q, base)
        if len(result) != math.comb(p + q, p):
            problems.append("%s: %d terms, expected %d" % (label, len(result), math.comb(p + q, p)))
            continue
        for word, coeff in result.items():
            origin = [gens.index(f) for f in word.factors]
            left, right = [i for i in origin if i < p], [i for i in origin if i >= p]
            if left != sorted(left) or right != sorted(right) or len(origin) != p + q:
                problems.append("%s: %r is not a shuffle" % (label, word))
                break
            if coeff != _koszul_shuffle_sign(degs, origin):
                problems.append("%s: coefficient %s, Koszul sign %d"
                                % (label, coeff, _koszul_shuffle_sign(degs, origin)))
                break
    return problems


README_EXAMPLES = [
    (["eval", "--op", "mu2", "--expr", "1/1 * T(a,b)", "--gens", "a:2,b:2"],
     "1/1 * T(a,b) + 1/1 * T(b,a)"),
    (["eval", "--op", "kappa", "--expr", "1/1 * P(T(a,b); S())", "--gens", "a:2,b:2"],
     "1/1 * P(T(a); S()) # P(T(b); S()) + 1/1 * P(T(b); S()) # P(T(a); S())"),
]

# FormsModel on two coordinates: x wedge y = (1/|y|) x /\ dy, where |y| is the
# form degree of y plus one, and x diamond y = x /\ y.  Worked by hand.
FORMS_TABLE = [
    ("wedge", "u1", "u2", {"u1.du2": Fraction(1)}),
    ("wedge", "u1", "u1.u2", {"u1.u1.du2": Fraction(1), "u1.u2.du1": Fraction(1)}),
    ("wedge", "one", "du1", {}),
    ("wedge", "u1", "u2.du1", {"u1.du1.du2": Fraction(-1, 2)}),
    ("diamond", "du1", "du2", {"du1.du2": Fraction(1)}),
    ("diamond", "du2", "du1", {"du1.du2": Fraction(-1)}),
    ("diamond", "du1", "du1", {}),
    ("diamond", "u1", "u2.du1", {"u1.u2.du1": Fraction(1)}),
]

_ATOMS = {"one": ((0, 0), ()), "u1": ((1, 0), ()), "u2": ((0, 1), ()),
          "u1.u2": ((1, 1), ()), "du1": ((0, 0), (1,)), "du2": ((0, 0), (2,)),
          "u2.du1": ((0, 1), (1,))}


def check_hand_examples():
    """The README's eval examples through the CLI, and the forms table."""
    from pregerst.cli import main
    from pregerst.models import FormsModel

    problems = []
    for argv, expected in README_EXAMPLES:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        if code != 0 or out.getvalue().strip() != expected:
            problems.append("pregerst %s gave %r (exit %s)" % (" ".join(argv), out.getvalue(), code))
    model = FormsModel(2)
    for op, x, y, expected in FORMS_TABLE:
        a = {model.atom(*_ATOMS[x]): Fraction(1)}
        b = {model.atom(*_ATOMS[y]): Fraction(1)}
        got = {g.name: c for g, c in getattr(model, op)(a, b).items()}
        if got != expected:
            problems.append("%s(%s, %s) = %s, expected %s" % (op, x, y, got, expected))
    return problems


def check_mutants():
    """mutation-sanity must detect every curated mutant, of which there are
    at least ten."""
    from pregerst.mutations import ALL_MUTATION_NAMES
    from pregerst.suites import SuiteConfig, run_suite

    report = run_suite(SuiteConfig("mutation-sanity"))
    detected = [r.check_id for r in report.records if r.status == "pass"]
    total = len(ALL_MUTATION_NAMES)
    if total < 10 or len(report.records) != total or len(detected) != total:
        return ["mutation-sanity detected %d of %d mutants"
                % (len(detected), total)]
    return []
