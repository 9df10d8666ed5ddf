"""Named verification suites, deterministic sampling and report assembly.

A suite is one SuiteSpec in SUITE_SPECS: its builder, its model and its
default sizes.  The builder returns instances; each evaluates one law, axiom
or operator identity on one input and returns the exact defect, an Element.
Every suite but mutation-sanity is built by _suite from rows (check_id,
inputs, check): inputs(model, config) yields (input text, arguments) pairs,
sampled by _draws or enumerated, and each instance returns check(model,
*arguments).  A suite runs on its spec's model alone.

run_suite is the one place that turns a defect into a verdict and text: zero
passes and reads "zero", anything else fails and reads as element_to_text
renders it (a mutation-sanity instance, which expects a nonzero defect, has
the two verdicts swapped).

Reports come in two formats: a human-readable text form with per-instance
wall times, and a structured JSON-lines form with a stable field order and
no timing data, so two runs with the same configuration are byte-identical.

Sampling is a pure function of (seed, suite, instance index); models are
immutable; nothing in a run depends on iteration order of anything unsorted.
An instance that uses the envelopes builds its own EnvelopeContext when it
runs, so the images it keeps go with it.

Instances that blow past the term cap abort explicitly: an abort is a third
state, never silently folded into pass or fail.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass, field, fields
from functools import partial

from .cooperations import LawId, delta_perm, kappa, law_defect
from .envelopes import (
    EnvelopeContext,
    coderivation_defect,
    l_infinity_q,
    m_map,
    prelie_envelope_q,
    q_total,
    r2_derivation_defect,
    r2_prelie_defect,
    zinfinity_d,
)
from .errors import TermBudgetExceeded
from .grading import SHIFT1, SHIFT2, Generator
from .models import AxiomId, FormsModel, axiom_defect
from .mutations import mutant
from .words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    element_to_text,
    get_term_cap,
    mu_shuffle,
    set_term_cap,
    sym_word,
)


@dataclass
class SuiteConfig:
    suite: str
    n_coords: int = 2
    max_poly_degree: int = 3
    max_tensor_len: int = None
    max_tail_factors: int = None
    samples: int = None
    seed: int = 42
    report_format: str = "text"
    term_cap: int = 10**6

    def resolved(self) -> "SuiteConfig":
        spec = SUITE_SPECS.get(self.suite)
        if spec is None:
            raise ValueError("unknown suite %r" % self.suite)
        out = SuiteConfig(**vars(self))
        for name in ("max_tensor_len", "max_tail_factors", "samples"):
            if getattr(out, name) is None:
                setattr(out, name, getattr(spec, name))
        for name in ("n_coords", "max_poly_degree", "max_tensor_len",
                     "max_tail_factors", "samples", "term_cap"):
            if getattr(out, name) is not None and getattr(out, name) < 1:
                raise ValueError("%s must be positive" % name)
        return out

    @property
    def model(self):
        """The model of the suite's spec, the one it runs on."""
        return SUITE_SPECS[self.suite].model

    def as_dict(self):
        """Every field but report_format, which no report records, and the model."""
        out = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "report_format"}
        out["model"] = self.model
        return out


@dataclass(slots=True)
class InstanceRecord:
    index: int
    check_id: str
    status: str          # pass | fail | abort
    input_text: str
    defect_text: str
    millis: float = 0.0


@dataclass
class VerificationReport:
    suite: str
    config: dict
    records: list = field(default_factory=list)
    total_ms: float = 0.0   # checking the instances
    build_ms: float = 0.0   # building them

    @property
    def passed(self):
        return sum(1 for r in self.records if r.status == "pass")

    @property
    def failed(self):
        return sum(1 for r in self.records if r.status == "fail")

    @property
    def aborted(self):
        return sum(1 for r in self.records if r.status == "abort")

    def exit_code(self) -> int:
        """0 all passed, 1 some failed, 2 no verdict: an abort or no instances."""
        if self.failed:
            return 1
        if self.aborted or not self.records:
            return 2
        return 0

    def structured_lines(self):
        """Byte-stable JSON lines; timing deliberately excluded."""
        out = []
        for r in self.records:
            out.append(json.dumps(
                {"check": r.check_id, "defect": r.defect_text,
                 "index": r.index, "input": r.input_text,
                 "note": "", "status": r.status, "suite": self.suite},
                sort_keys=True, separators=(",", ":")))
        out.append(json.dumps(
            {"aborted": self.aborted, "config": self.config,
             "failed": self.failed, "passed": self.passed,
             "suite": self.suite, "summary": True},
            sort_keys=True, separators=(",", ":")))
        return out

    def text_lines(self):
        out = ["suite %s  (model=%s seed=%s)" % (
            self.suite, self.config.get("model"), self.config.get("seed"))]
        first_failure = None
        for r in self.records:
            if r.status != "pass" and first_failure is None:
                first_failure = r
            mark = {"pass": "ok  ", "fail": "FAIL", "abort": "ABRT"}[r.status]
            line = "  [%s] #%03d %-28s %6.1fms" % (mark, r.index, r.check_id, r.millis)
            if r.status != "pass":
                line += "  input: %s" % r.input_text
                line += "  defect: %s" % r.defect_text
            out.append(line)
        out.append("summary: %d pass, %d fail, %d abort  (%.1f s checking, %.1f s building)"
                   % (self.passed, self.failed, self.aborted, self.total_ms / 1000.0,
                      self.build_ms / 1000.0))
        if first_failure is not None:
            out.append("first failure: #%d %s" % (first_failure.index, first_failure.check_id))
        return out


@dataclass
class SuiteSpec:
    builder: object
    model: str
    samples: int = None
    max_tensor_len: int = None
    max_tail_factors: int = None


class Instance:
    """One check on one input: thunk() returns the exact defect."""

    __slots__ = ("check_id", "input_text", "thunk", "expect_nonzero")

    def __init__(self, check_id, input_text, thunk, expect_nonzero=False):
        self.check_id = check_id
        self.input_text = input_text
        self.thunk = thunk
        self.expect_nonzero = expect_nonzero


def _rng(config, index, salt=""):
    return random.Random("%s|%s|%s|%s" % (config.seed, config.suite, index, salt))


def run_suite(config: SuiteConfig) -> VerificationReport:
    config = config.resolved()
    previous_cap = get_term_cap()
    set_term_cap(config.term_cap)
    try:
        spec = SUITE_SPECS[config.suite]
        start = time.monotonic()
        instances = spec.builder(config)
        report = VerificationReport(config.suite, config.as_dict(),
                                    build_ms=(time.monotonic() - start) * 1000.0)
        start = time.monotonic()
        for idx, inst in enumerate(instances):
            t0 = time.monotonic()
            try:
                defect = inst.thunk()
                if defect.is_zero():
                    status = "fail" if inst.expect_nonzero else "pass"
                    defect_text = "zero (mutation undetected)" if inst.expect_nonzero else "zero"
                else:
                    status = "pass" if inst.expect_nonzero else "fail"
                    defect_text = element_to_text(defect)
            except TermBudgetExceeded as exc:
                status = "abort"
                defect_text = str(exc)
            except Exception as exc:
                # one bad instance is recorded and the run goes on
                status = "abort"
                defect_text = "error: %s: %s" % (type(exc).__name__, exc)
            ms = (time.monotonic() - t0) * 1000.0
            report.records.append(InstanceRecord(
                idx, inst.check_id, status, inst.input_text, defect_text, ms))
        report.total_ms = (time.monotonic() - start) * 1000.0
    finally:
        set_term_cap(previous_cap)
    return report


# ---------------------------------------------------------------------------
# samplers: sample(model, rng, config) returns a draw, a tuple of elements,
# or None for a draw that vanished
# ---------------------------------------------------------------------------

def _sample_triple(model, rng, config):
    return tuple(model.sample_form(rng, max_poly_degree=config.max_poly_degree)
                 for _ in range(3))


def _rand_gens(model, rng, count, max_poly):
    return [Gen(model.sample_atom(rng, max_poly_degree=max_poly)) for _ in range(count)]


def _x_word(base_degrees):
    """A tensor word of generators x0, x1, ... of these base degrees."""
    return Tensor(tuple(Gen(Generator("x%d" % i, d)) for i, d in enumerate(base_degrees)))


def _formal_words(rng, lengths):
    """Tensor words of these lengths over distinct generators g0, g1, ... of
    random base degrees, so no two are equal."""
    it = iter([Gen(Generator("g%d" % i, rng.randint(1, 4))) for i in range(sum(lengths))])
    return [Tensor(tuple(next(it) for _ in range(n))) for n in lengths]


def _sym_draw(factors, head=None):
    """The draw of S(factors), or of P(head; S(factors)) given a head; None
    if the symmetric word vanished."""
    sign, tail = sym_word(factors, SHIFT2)
    if tail is None:
        return None
    return (Element.single(tail if head is None else Pair(head, tail), sign),)


def _sample_formal_pair(model, rng, config):
    lengths = [rng.randint(1, config.max_tensor_len)]
    for _ in range(rng.randint(0, config.max_tail_factors)):
        lengths.append(rng.randint(1, 2))
    head, *tails = _formal_words(rng, lengths)
    return _sym_draw(tails, head)


def _sample_formal_sym(model, rng, config):
    return _sym_draw(_formal_words(rng, [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]))


def _sample_tensor_words(*bounds):
    """A sampler of one tensor word per bound, of length 1 to that bound, or
    to config.max_tensor_len for a bound of None."""
    def sample(model, rng, config):
        return tuple(Element.single(Tensor(_rand_gens(
            model, rng, rng.randint(1, bound or config.max_tensor_len), config.max_poly_degree)))
            for bound in bounds)
    return sample


def _sample_generator_pair(model, rng, config):
    (head,) = _rand_gens(model, rng, 1, config.max_poly_degree)
    # generator-level pair words carry single-atom tail factors
    return _sym_draw(_rand_gens(model, rng, rng.randint(0, 3), config.max_poly_degree), head)


def _sample_generator_sym(model, rng, config):
    return _sym_draw(_rand_gens(model, rng, rng.randint(1, 3), config.max_poly_degree))


def _sample_forms_pair(model, rng, config):
    head = Tensor(_rand_gens(model, rng, rng.randint(1, config.max_tensor_len), 1))
    return _sym_draw([Tensor(_rand_gens(model, rng, rng.randint(1, 2), 1))
                      for _ in range(rng.randint(0, config.max_tail_factors))], head)


# ---------------------------------------------------------------------------
# the suite table: rows (check_id, inputs, check)
# ---------------------------------------------------------------------------

def _suite(*rows):
    """The builder of the suite of these rows, on one model per build: a
    FormsModel for a forms suite, None for a formal one."""
    def build(config):
        model = FormsModel(config.n_coords) if config.model == "forms" else None
        return [Instance(check_id, text, partial(check, model, *args))
                for check_id, inputs, check in rows for text, args in inputs(model, config)]
    return build


def _draws(salt, sample):
    """Inputs of config.samples draws: draw k is sample(model, rng, config)
    with rng = _rng(config, k, salt), its text the elements' texts joined by
    "; ".  A draw that vanished is skipped."""
    def inputs(model, config):
        for k in range(config.samples):
            args = sample(model, _rng(config, k, salt), config)
            if args is not None:
                yield "; ".join(map(element_to_text, args)), args
    return inputs


def _shuffle_splits(model, config):
    """Every split p + q = n, 2 <= n <= max_tensor_len, of every word of
    generators of base degree 1 to 3."""
    for n in range(2, config.max_tensor_len + 1):
        for pattern in itertools.product((0, 1, 2), repeat=n):
            atoms = _x_word(d + 1 for d in pattern).factors
            for p in range(1, n):
                yield ("p=%d q=%d degs=%s" % (p, n - p, list(pattern)),
                       (Tensor(atoms[:p]), Tensor(atoms[p:])))


def _x_words(model, config):
    """Every word of length 1 to max_tensor_len of generators of base degree 2 to 4."""
    for n in range(1, config.max_tensor_len + 1):
        for pattern in itertools.product((1, 2, 3), repeat=n):
            yield "degs=%s" % list(pattern), (Element.single(_x_word(d + 1 for d in pattern)),)


def _axiom_rows(*axioms):
    return [(axiom.value, _draws(axiom.value, _sample_triple),
             lambda model, *xs, axiom=axiom: axiom_defect(model, axiom, xs))
            for axiom in axioms]


def _law_row(law, sample, salt=None):
    """The law on draws of sample, salted with the law's name unless given."""
    return (law.value, _draws(salt or law.value, sample),
            lambda model, elem: law_defect(law, elem))


def _square(op, ctx, elem):
    return op(ctx, op(ctx, elem))


# ---------------------------------------------------------------------------
# mutation sanity
# ---------------------------------------------------------------------------

def _first_nonzero(defects):
    """The first nonzero defect of the iterable, else zero."""
    for defect in defects:
        if not defect.is_zero():
            return defect
    return Element()


def _build_mutation_sanity(config):
    """One instance per curated mutant; a pass means a nonzero defect was
    produced somewhere in the targeted check, so a checker that could never
    fail would fail this suite.  Each runner does its work inside
    ``with mutant(name)``, which compiles that fault into its target function
    for the block alone and clears the package's cached tables on entry and
    on exit; the instances themselves are built on the unmutated program.
    Inputs are fixed small words known to expose each fault (several faults
    are invisible on generic inputs: with a zero model differential the tail
    part of m needs a tail factor of length two to act at all, and on forms
    the induced bracket vanishes identically so flipping its sign is only
    visible through the derivation identity)."""
    out = []

    def add(name, check, input_text, run):
        """run returns the first nonzero defect it finds, else zero."""
        def thunk():
            with mutant(name):
                return run()
        out.append(Instance("mutation:%s->%s" % (name, check), input_text, thunk, True))

    model = FormsModel(config.n_coords)
    a_u1, a_u2 = model.atom((1, 0), ()), model.atom((0, 1), ())

    def forms_pair(head_atoms, tail_lists):
        """A pair word over these atoms; its fixed tails never vanish."""
        return _sym_draw([Tensor(tuple(Gen(a) for a in tl)) for tl in tail_lists],
                         Tensor(tuple(Gen(a) for a in head_atoms)))[0]

    # 1. mu_2 collapsed to the identity: the Leibniz coalgebra law fails.
    def mu2_run():
        return _first_nonzero(
            law_defect(LawId.LEIBNIZ_COALG, Element.single(_x_word(d + 1 for d in pattern)))
            for pattern in itertools.product((1, 2), repeat=3))
    add("mu2_identity", "leibniz_coalg", "tensor words of length 3", mu2_run)

    # 2. unsigned shuffles: mu o sh picks up uncancelled terms.
    def sh_run():
        def defects():
            for pattern in [(1, 1), (1, 2, 1), (1, 1, 2)]:
                atoms = _x_word(d + 1 for d in pattern).factors
                for p in range(1, len(pattern)):
                    yield mu_shuffle(Tensor(atoms[:p]), Tensor(atoms[p:]), SHIFT1)
        return _first_nonzero(defects())
    add("shuffle_unsigned", "mu_shuffle", "odd-degree shuffle words", sh_run)

    # 3. bracket with a plus: D stops deriving the extension (on forms the
    # bracket itself is identically zero, so the flip doubles a term that the
    # derivation identity then sees).
    def r2_run():
        x = Element.single(Tensor((Gen(a_u1), Gen(a_u1))))
        y = Element.single(Tensor((Gen(a_u1),)))
        return r2_derivation_defect(EnvelopeContext(model), x, y)
    add("r2_bracket_plus", "r2_derivation", "x = u1 (x) u1, y = u1", r2_run)

    # 4. m without its head sign: m stops being a coderivation of the
    # permutative coproduct (needs a length-2 tail factor so D acts there).
    def m_run():
        elem = forms_pair((a_u1,), ((a_u1, a_u1),))
        return coderivation_defect(EnvelopeContext(model), m_map, delta_perm, 0, elem)
    add("m_tail_sign_drop", "coderiv_delta", "P(T(u1); S(T(u1,u1)))", m_run)

    # 5. kappa head-cut sign dropped: coJacobi fails.
    def kh_run():
        return _first_nonzero(
            law_defect(LawId.KAPPA_COJACOBI, Element.single(Pair(_x_word(degs), Sym(()))))
            for degs in [(2, 2, 2), (2, 3, 2), (3, 2, 2)])
    add("kappa_head_sign_drop", "kappa_cojacobi", "length-3 heads", kh_run)

    # 6. kappa_prime position prefix dropped: the mixed compatibility law
    # with the permutative coproduct fails (a later tail factor is cut after
    # an odd-degree earlier one).
    def kp_run():
        return law_defect(LawId.COMPAT_2, forms_pair((a_u1,), ((a_u1,), (a_u1, a_u2))))
    add("kappa_prime_prefix_drop", "compat_2", "P(T(u1); S(T(u1),T(u1,u2)))", kp_run)

    # 7. binary Zinbiel part without its degree twist: the second pass of D
    # hits odd-degree product atoms and no longer cancels.
    def zq_run():
        w = Tensor((Gen(a_u1), Gen(a_u2), Gen(a_u1)))
        return _square(zinfinity_d, EnvelopeContext(model), Element.single(w))
    add("zinf_q2_sign_drop", "zinf_square", "T(u1,u2,u1)", zq_run)

    # 8. l2 antisymmetrised instead of symmetrised: Q^2 != 0.
    def l2_run():
        elem = forms_pair((a_u1,), ((a_u1,), (a_u1, a_u1)))
        return _square(q_total, EnvelopeContext(model), elem)
    add("l2_sym_sign_flip", "q_square", "P(T(u1); S(T(u1),T(u1,u1)))", l2_run)

    # 9. wedge without its 1/degree scalar: the Zinbiel axiom fails.  The
    # compatibility axioms are scale-invariant (the same wedge factor appears
    # once on each side), so the Zinbiel defect is where the scalar matters.
    def wedge_run():
        model3 = FormsModel(3)
        x = Element.single(model3.atom((1, 0, 0), ()))
        y = Element.single(model3.atom((0, 1, 0), ()))
        z = Element.single(model3.atom((0, 0, 1), ()))
        return axiom_defect(model3, AxiomId.ZINBIEL, [x, y, z])
    add("wedge_scale_drop", "zinbiel", "coordinate functions u1,u2,u3", wedge_run)

    # 10. unsigned embedding: the mixed compatibility law fails.
    def embed_run():
        gens = [Gen(Generator("g%d" % i, d)) for i, d in enumerate((1, 2, 3, 4))]
        (e,) = _sym_draw([Tensor((gens[2],)), Tensor((gens[3],))], Tensor((gens[0], gens[1])))
        return law_defect(LawId.COMPAT_2, e)
    add("embed_unsigned", "compat_2", "P(T(g0,g1); S(T(g2),T(g3)))", embed_run)

    return out


# Each check names the maps it calls inside a lambda, so each name is looked up
# when an instance runs: a function object captured at import would bypass a
# wrapper bound to the module name later (perfbench's tracer wraps the
# package's functions that way).
SUITE_SPECS = {
    "zinbiel-axioms": SuiteSpec(_suite(*_axiom_rows(AxiomId.ZINBIEL)), "forms", samples=200),
    "prelie-axioms": SuiteSpec(_suite(*_axiom_rows(AxiomId.PRELIE)), "forms", samples=200),
    "compat": SuiteSpec(_suite(*_axiom_rows(AxiomId.COMPAT_A, AxiomId.COMPAT_B,
                                            AxiomId.COMPAT_C)), "forms", samples=200),
    "aguiar": SuiteSpec(_suite(*_axiom_rows(AxiomId.AGUIAR_1, AxiomId.AGUIAR_2)),
                        "forms", samples=200),
    "gerst-derived": SuiteSpec(_suite(*_axiom_rows(AxiomId.DERIVED_1, AxiomId.DERIVED_2,
                                                   AxiomId.LEIBNIZ_GERST)),
                               "forms", samples=200),
    "mu-shuffle-lemma": SuiteSpec(
        _suite(("mu_shuffle", _shuffle_splits,
                lambda model, left, right: mu_shuffle(left, right, SHIFT1))),
        "formal", max_tensor_len=6),
    "leibniz-coalgebra": SuiteSpec(
        _suite(("leibniz_coalg", _x_words,
                lambda model, elem: law_defect(LawId.LEIBNIZ_COALG, elem))),
        "formal", max_tensor_len=5),
    "perm-coalgebra": SuiteSpec(_suite(_law_row(LawId.PERM_COALG, _sample_formal_pair)),
                                "formal", samples=100, max_tensor_len=3, max_tail_factors=2),
    "kappa-cojacobi": SuiteSpec(_suite(_law_row(LawId.KAPPA_COJACOBI, _sample_formal_pair),
                                       _law_row(LawId.KAPPA_COSYM, _sample_formal_sym, "cosym")),
                                "formal", samples=100, max_tensor_len=3, max_tail_factors=2),
    "kappa-compat": SuiteSpec(_suite(*(_law_row(law, _sample_formal_pair) for law in
                                       (LawId.COMPAT_1, LawId.COMPAT_2, LawId.COMPAT_3))),
                              "formal", samples=100, max_tensor_len=3, max_tail_factors=2),
    "r2-prelie": SuiteSpec(
        _suite(("r2_prelie", _draws("", _sample_tensor_words(3, 2, 2)),
                lambda model, *xs: r2_prelie_defect(EnvelopeContext(model), *xs))),
        "forms", samples=100),
    "r2-derivation": SuiteSpec(
        _suite(("r2_derivation", _draws("", _sample_tensor_words(3, 2)),
                lambda model, *xs: r2_derivation_defect(EnvelopeContext(model), *xs))),
        "forms", samples=100),
    "zinf-square": SuiteSpec(
        _suite(("zinf_square", _draws("", _sample_tensor_words(None)),
                lambda model, e: _square(zinfinity_d, EnvelopeContext(model), e))),
        "forms", samples=50, max_tensor_len=4),
    "prelinf-square": SuiteSpec(
        _suite(("prelinf_square", _draws("", _sample_generator_pair),
                lambda model, e: _square(prelie_envelope_q, EnvelopeContext(model), e))),
        "forms", samples=50),
    "linf-square": SuiteSpec(
        _suite(("linf_square", _draws("", _sample_generator_sym),
                lambda model, e: _square(l_infinity_q, EnvelopeContext(model), e))),
        "forms", samples=50),
    "q-coderiv-delta": SuiteSpec(
        _suite(("coderiv_delta_Q", _draws("", _sample_forms_pair),
                lambda model, e: coderivation_defect(EnvelopeContext(model), q_total,
                                                     delta_perm, 0, e))),
        "forms", samples=50, max_tensor_len=2, max_tail_factors=2),
    "q-coderiv-kappa": SuiteSpec(
        _suite(("coderiv_kappa_Q", _draws("", _sample_forms_pair),
                lambda model, e: coderivation_defect(EnvelopeContext(model), q_total,
                                                     kappa, 1, e))),
        "forms", samples=50, max_tensor_len=2, max_tail_factors=2),
    "q-square": SuiteSpec(
        _suite(("q_square", _draws("", _sample_forms_pair),
                lambda model, e: _square(q_total, EnvelopeContext(model), e))),
        "forms", samples=50, max_tensor_len=2, max_tail_factors=2),
    "mutation-sanity": SuiteSpec(_build_mutation_sanity, "forms"),
}

SUITE_NAMES = sorted(SUITE_SPECS)
