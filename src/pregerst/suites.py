"""Named verification suites, deterministic sampling and report assembly.

A suite is a list of instances; each instance evaluates one law, axiom or
operator identity on one input and reports the exact defect.  Reports come in
two formats: a human-readable text form with per-instance wall times, and a
structured JSON-lines form with a stable field order and no timing data, so
two runs with the same configuration are byte-identical.

Sampling is a pure function of (seed, suite, instance index); models are
immutable; nothing in a run depends on iteration order of anything unsorted.
An instance that uses the envelopes builds its own EnvelopeContext when it
runs, so the images it keeps go with it.

Instances that blow past the term cap abort explicitly: an abort is a third
state, never silently folded into pass or fail.
"""

from __future__ import annotations

import json
import random
import time
from dataclasses import dataclass, field

from .cooperations import LawId, check_law, kappa, delta_perm
from .envelopes import (
    EnvelopeContext,
    check_coderivation,
    check_r2_derivation,
    check_r2_prelie,
    coderivation_m,
    coderivation_q,
    l_infinity_q,
    prelie_envelope_q,
    q_total,
    zinfinity_d,
)
from .errors import TermBudgetExceeded
from .grading import SHIFT1, SHIFT2, GeneratorRegistry
from .models import AxiomId, FormsModel, axiom_defect, check_axiom
from .mutations import mutant
from .words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    element_to_text,
    get_term_cap,
    mu,
    set_term_cap,
    shuffle_product,
    sym_word,
)

import itertools


@dataclass
class SuiteConfig:
    suite: str
    model: str = None
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
        if out.model is None:
            out.model = spec.default_model
        if out.model not in spec.models:
            raise ValueError(
                "suite %s needs model in %s, got %r"
                % (self.suite, sorted(spec.models), out.model)
            )
        if out.max_tensor_len is None:
            out.max_tensor_len = spec.max_tensor_len
        if out.max_tail_factors is None:
            out.max_tail_factors = spec.max_tail_factors
        if out.samples is None:
            out.samples = spec.samples
        for name in ("n_coords", "max_poly_degree", "max_tensor_len",
                     "max_tail_factors", "samples", "term_cap"):
            if getattr(out, name) is not None and getattr(out, name) < 1:
                raise ValueError("%s must be positive" % name)
        return out

    def as_dict(self):
        return {
            "suite": self.suite,
            "model": self.model,
            "n_coords": self.n_coords,
            "max_poly_degree": self.max_poly_degree,
            "max_tensor_len": self.max_tensor_len,
            "max_tail_factors": self.max_tail_factors,
            "samples": self.samples,
            "seed": self.seed,
            "term_cap": self.term_cap,
        }


@dataclass(slots=True)
class InstanceRecord:
    index: int
    check_id: str
    status: str          # pass | fail | abort
    input_text: str
    defect_text: str
    millis: float = 0.0
    note: str = ""


@dataclass
class VerificationReport:
    suite: str
    config: dict
    records: list = field(default_factory=list)
    total_ms: float = 0.0

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
                 "note": r.note, "status": r.status, "suite": self.suite},
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
        out.append("summary: %d pass, %d fail, %d abort  (%.1f s total)"
                   % (self.passed, self.failed, self.aborted, self.total_ms / 1000.0))
        if first_failure is not None:
            out.append("first failure: #%d %s" % (first_failure.index, first_failure.check_id))
        return out


@dataclass
class SuiteSpec:
    builder: object
    models: frozenset
    default_model: str
    samples: int = None
    max_tensor_len: int = None
    max_tail_factors: int = None


class Instance:
    __slots__ = ("check_id", "input_text", "thunk", "expect_nonzero", "note")

    def __init__(self, check_id, input_text, thunk, expect_nonzero=False, note=""):
        self.check_id = check_id
        self.input_text = input_text
        self.thunk = thunk
        self.expect_nonzero = expect_nonzero
        self.note = note


def _rng(config, index, salt=""):
    return random.Random("%s|%s|%s|%s" % (config.seed, config.suite, index, salt))


def run_suite(config: SuiteConfig) -> VerificationReport:
    config = config.resolved()
    previous_cap = get_term_cap()
    set_term_cap(config.term_cap)
    try:
        spec = SUITE_SPECS[config.suite]
        instances = spec.builder(config)
        report = VerificationReport(config.suite, config.as_dict())
        start = time.monotonic()
        for idx, inst in enumerate(instances):
            t0 = time.monotonic()
            try:
                ok, defect_text = inst.thunk()
                if inst.expect_nonzero:
                    status = "pass" if not ok else "fail"
                    defect_text = defect_text if not ok else "zero (mutation undetected)"
                else:
                    status = "pass" if ok else "fail"
            except TermBudgetExceeded as exc:
                status = "abort"
                defect_text = str(exc)
            except Exception as exc:
                # one bad instance is recorded and the run goes on
                status = "abort"
                defect_text = "error: %s: %s" % (type(exc).__name__, exc)
            ms = (time.monotonic() - t0) * 1000.0
            report.records.append(InstanceRecord(
                idx, inst.check_id, status, inst.input_text, defect_text, ms, inst.note))
        report.total_ms = (time.monotonic() - start) * 1000.0
    finally:
        set_term_cap(previous_cap)
    return report


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def _forms_model(config):
    return FormsModel(config.n_coords)


def _sample_triple(model, rng, config):
    return [model.sample_form(rng, max_poly_degree=config.max_poly_degree)
            for _ in range(3)]


def _rand_atom_word(model, rng, length, max_poly):
    return Tensor(tuple(Gen(model.sample_atom(rng, max_poly_degree=max_poly))
                        for _ in range(length)))


def _rand_forms_pair(model, rng, max_head, max_tails, max_tlen, max_poly):
    head = _rand_atom_word(model, rng, rng.randint(1, max_head), max_poly)
    tails = [_rand_atom_word(model, rng, rng.randint(1, max_tlen), max_poly)
             for _ in range(rng.randint(0, max_tails))]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


def _formal_atoms(rng, count, max_base=4):
    reg = GeneratorRegistry()
    return [Gen(reg.declare("g%d" % i, rng.randint(1, max_base))) for i in range(count)]


def _rand_formal_pair(rng, max_head, max_tails, max_tlen):
    lengths = [rng.randint(1, max_head)]
    for _ in range(rng.randint(0, max_tails)):
        lengths.append(rng.randint(1, max_tlen))
    atoms = _formal_atoms(rng, sum(lengths))
    it = iter(atoms)
    head = Tensor(tuple(next(it) for _ in range(lengths[0])))
    tails = [Tensor(tuple(next(it) for _ in range(L))) for L in lengths[1:]]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


def _rand_formal_sym_of_tensors(rng, max_factors, max_tlen):
    lengths = [rng.randint(1, max_tlen) for _ in range(rng.randint(1, max_factors))]
    atoms = _formal_atoms(rng, sum(lengths))
    it = iter(atoms)
    facs = [Tensor(tuple(next(it) for _ in range(L))) for L in lengths]
    sign, w = sym_word(facs, SHIFT2)
    if w is None:
        return None
    return Element.single(w, sign)


# ---------------------------------------------------------------------------
# suite builders
# ---------------------------------------------------------------------------

def _axiom_suite(axioms):
    def build(config):
        model = _forms_model(config)
        out = []
        for axiom in axioms:
            for i in range(config.samples):
                rng = _rng(config, i, axiom.value)
                args = _sample_triple(model, rng, config)
                text = "; ".join(element_to_text(a) for a in args)

                def thunk(model=model, axiom=axiom, args=args):
                    chk = check_axiom(model, axiom, args)
                    return chk.ok, "zero" if chk.ok else element_to_text(chk.defect)
                out.append(Instance(axiom.value, text, thunk))
        return out
    return build


def _build_mu_shuffle(config):
    out = []
    bound = config.max_tensor_len
    for n in range(2, bound + 1):
        for pattern in itertools.product((0, 1, 2), repeat=n):
            for p in range(1, n):
                reg = GeneratorRegistry()
                atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
                left = Tensor(tuple(atoms[:p]))
                right = Tensor(tuple(atoms[p:]))
                text = "p=%d q=%d degs=%s" % (p, n - p, list(pattern))

                def thunk(left=left, right=right, n=n):
                    sh = shuffle_product(left, right, SHIFT1)
                    res = mu(n, sh, SHIFT1)
                    return res.is_zero(), "zero" if res.is_zero() else element_to_text(res)
                out.append(Instance("mu_shuffle", text, thunk))
    return out


def _build_leibniz(config):
    out = []
    for n in range(1, config.max_tensor_len + 1):
        for pattern in itertools.product((1, 2, 3), repeat=n):
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
            elem = Element.single(Tensor(tuple(atoms)))

            def thunk(elem=elem):
                chk = check_law(LawId.LEIBNIZ_COALG, elem)
                return chk.ok, chk.defect_text
            out.append(Instance("leibniz_coalg", "degs=%s" % list(pattern), thunk))
    return out


def _law_on_formal_pairs(law):
    def build(config):
        out = []
        i = 0
        attempts = 0
        while i < config.samples and attempts < config.samples * 4:
            rng = _rng(config, attempts, law.value)
            attempts += 1
            elem = _rand_formal_pair(rng, config.max_tensor_len,
                                     config.max_tail_factors, 2)
            if elem is None:
                continue

            def thunk(elem=elem):
                chk = check_law(law, elem)
                return chk.ok, chk.defect_text
            out.append(Instance(law.value, element_to_text(elem), thunk))
            i += 1
        return out
    return build


def _build_kappa_cojacobi(config):
    out = _law_on_formal_pairs(LawId.KAPPA_COJACOBI)(config)
    i = 0
    attempts = 0
    while i < config.samples and attempts < config.samples * 4:
        rng = _rng(config, attempts, "cosym")
        attempts += 1
        elem = _rand_formal_sym_of_tensors(rng, 2, 3)
        if elem is None:
            continue

        def thunk(elem=elem):
            chk = check_law(LawId.KAPPA_COSYM, elem)
            return chk.ok, chk.defect_text
        out.append(Instance(LawId.KAPPA_COSYM.value, element_to_text(elem), thunk))
        i += 1
    return out


def _build_kappa_compat(config):
    out = []
    for law in (LawId.COMPAT_1, LawId.COMPAT_2, LawId.COMPAT_3):
        out.extend(_law_on_formal_pairs(law)(config))
    return out


def _build_r2_prelie(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        x = Element.single(_rand_atom_word(model, rng, rng.randint(1, 3), config.max_poly_degree))
        y = Element.single(_rand_atom_word(model, rng, rng.randint(1, 2), config.max_poly_degree))
        z = Element.single(_rand_atom_word(model, rng, rng.randint(1, 2), config.max_poly_degree))
        text = "; ".join(element_to_text(e) for e in (x, y, z))

        def thunk(x=x, y=y, z=z):
            rep = check_r2_prelie(EnvelopeContext(model), x, y, z)
            return rep.ok, rep.defect_text
        out.append(Instance("r2_prelie", text, thunk))
    return out


def _build_r2_derivation(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        x = Element.single(_rand_atom_word(model, rng, rng.randint(1, 3), config.max_poly_degree))
        y = Element.single(_rand_atom_word(model, rng, rng.randint(1, 2), config.max_poly_degree))
        text = "; ".join(element_to_text(e) for e in (x, y))

        def thunk(x=x, y=y):
            rep = check_r2_derivation(EnvelopeContext(model), x, y)
            return rep.ok, rep.defect_text
        out.append(Instance("r2_derivation", text, thunk))
    return out


def _build_zinf_square(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        w = _rand_atom_word(model, rng, rng.randint(1, config.max_tensor_len),
                            config.max_poly_degree)
        elem = Element.single(w)

        def thunk(elem=elem):
            ctx = EnvelopeContext(model)
            res = zinfinity_d(ctx, zinfinity_d(ctx, elem))
            return res.is_zero(), "zero" if res.is_zero() else element_to_text(res)
        out.append(Instance("zinf_square", element_to_text(elem), thunk))
    return out


def _build_prelinf_square(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        head = Gen(model.sample_atom(rng, max_poly_degree=config.max_poly_degree))
        # generator-level pair words carry single-atom tail factors
        facs = [Gen(model.sample_atom(rng, max_poly_degree=config.max_poly_degree))
                for _ in range(rng.randint(0, 3))]
        sign, tail = sym_word(facs, SHIFT2)
        if tail is None:
            continue
        elem = Element.single(Pair(head, tail), sign)

        def thunk(elem=elem):
            ctx = EnvelopeContext(model)
            res = prelie_envelope_q(ctx, prelie_envelope_q(ctx, elem))
            return res.is_zero(), "zero" if res.is_zero() else element_to_text(res)
        out.append(Instance("prelinf_square", element_to_text(elem), thunk))
    return out


def _build_linf_square(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        atoms = [Gen(model.sample_atom(rng, max_poly_degree=config.max_poly_degree))
                 for _ in range(rng.randint(1, 3))]
        sign, w = sym_word(atoms, SHIFT2)
        if w is None:
            continue
        elem = Element.single(w, sign)

        def thunk(elem=elem):
            ctx = EnvelopeContext(model)
            res = l_infinity_q(ctx, l_infinity_q(ctx, elem))
            return res.is_zero(), "zero" if res.is_zero() else element_to_text(res)
        out.append(Instance("linf_square", element_to_text(elem), thunk))
    return out


def _build_q_square(config):
    model = _forms_model(config)
    out = []
    for i in range(config.samples):
        rng = _rng(config, i)
        elem = _rand_forms_pair(model, rng, config.max_tensor_len,
                                config.max_tail_factors, 2, 1)
        if elem is None:
            continue

        def thunk(elem=elem):
            ctx = EnvelopeContext(model)
            res = q_total(ctx, q_total(ctx, elem))
            return res.is_zero(), "zero" if res.is_zero() else element_to_text(res)
        out.append(Instance("q_square", element_to_text(elem), thunk))
    return out


def _coderiv_suite(which):
    def build(config):
        model = _forms_model(config)
        out = []
        for i in range(config.samples):
            rng = _rng(config, i)
            elem = _rand_forms_pair(model, rng, config.max_tensor_len,
                                    config.max_tail_factors, 2, 1)
            if elem is None:
                continue
            if which == "delta":
                cop = lambda e: delta_perm(e, SHIFT2)
                cop_degree = 0
                check_id = "coderiv_delta_Q"
            else:
                cop = lambda e: kappa(e, SHIFT2)
                cop_degree = 1
                check_id = "coderiv_kappa_Q"

            def thunk(elem=elem, cop=cop, cop_degree=cop_degree):
                q = coderivation_q(EnvelopeContext(model))
                rep = check_coderivation(cop, cop_degree, q, elem)
                return rep.ok, rep.defect_text
            out.append(Instance(check_id, element_to_text(elem), thunk))
        return out
    return build


# ---------------------------------------------------------------------------
# mutation sanity
# ---------------------------------------------------------------------------

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
        """run returns the first nonzero defect text it finds, else ''."""
        def thunk():
            with mutant(name):
                found = run()
            return (False, found) if found else (True, "zero")
        out.append(Instance("mutation:%s->%s" % (name, check), input_text, thunk, True))

    model = _forms_model(config)
    a_u1, a_u2 = model.atom((1, 0), ()), model.atom((0, 1), ())

    def forms_pair(head_atoms, tail_lists):
        """A pair word over these atoms; its fixed tails never vanish."""
        head = Tensor(tuple(Gen(a) for a in head_atoms))
        sign, tail = sym_word([Tensor(tuple(Gen(a) for a in tl)) for tl in tail_lists], SHIFT2)
        return Element.single(Pair(head, tail), sign)

    # 1. mu_2 collapsed to the identity: the Leibniz coalgebra law fails.
    def mu2_run():
        for pattern in itertools.product((1, 2), repeat=3):
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
            chk = check_law(LawId.LEIBNIZ_COALG, Element.single(Tensor(tuple(atoms))))
            if not chk.ok:
                return chk.defect_text
        return ""
    add("mu2_identity", "leibniz_coalg", "tensor words of length 3", mu2_run)

    # 2. unsigned shuffles: mu o sh picks up uncancelled terms.
    def sh_run():
        for pattern in [(1, 1), (1, 2, 1), (1, 1, 2)]:
            n = len(pattern)
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
            for p in range(1, n):
                sh = shuffle_product(Tensor(tuple(atoms[:p])), Tensor(tuple(atoms[p:])), SHIFT1)
                res = mu(n, sh, SHIFT1)
                if not res.is_zero():
                    return element_to_text(res)
        return ""
    add("shuffle_unsigned", "mu_shuffle", "odd-degree shuffle words", sh_run)

    # 3. bracket with a plus: D stops deriving the extension (on forms the
    # bracket itself is identically zero, so the flip doubles a term that the
    # derivation identity then sees).
    def r2_run():
        x = Element.single(Tensor((Gen(a_u1), Gen(a_u1))))
        y = Element.single(Tensor((Gen(a_u1),)))
        rep = check_r2_derivation(EnvelopeContext(model), x, y)
        return ("" if rep.ok else rep.defect_text)
    add("r2_bracket_plus", "r2_derivation", "x = u1 (x) u1, y = u1", r2_run)

    # 4. m without its head sign: m stops being a coderivation of the
    # permutative coproduct (needs a length-2 tail factor so D acts there).
    def m_run():
        elem = forms_pair((a_u1,), ((a_u1, a_u1),))
        rep = check_coderivation(lambda e: delta_perm(e, SHIFT2), 0,
                                 coderivation_m(EnvelopeContext(model)), elem)
        return ("" if rep.ok else rep.defect_text)
    add("m_tail_sign_drop", "coderiv_delta", "P(T(u1); S(T(u1,u1)))", m_run)

    # 5. kappa head-cut sign dropped: coJacobi fails.
    def kh_run():
        for degs in [(2, 2, 2), (2, 3, 2), (3, 2, 2)]:
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d)) for i, d in enumerate(degs)]
            e = Element.single(Pair(Tensor(tuple(atoms)), Sym(())))
            chk = check_law(LawId.KAPPA_COJACOBI, e)
            if not chk.ok:
                return chk.defect_text
        return ""
    add("kappa_head_sign_drop", "kappa_cojacobi", "length-3 heads", kh_run)

    # 6. kappa_prime position prefix dropped: the mixed compatibility law
    # with the permutative coproduct fails (a later tail factor is cut after
    # an odd-degree earlier one).
    def kp_run():
        elem = forms_pair((a_u1,), ((a_u1,), (a_u1, a_u2)))
        chk = check_law(LawId.COMPAT_2, elem)
        return ("" if chk.ok else chk.defect_text)
    add("kappa_prime_prefix_drop", "compat_2", "P(T(u1); S(T(u1),T(u1,u2)))", kp_run)

    # 7. binary Zinbiel part without its degree twist: the second pass of D
    # hits odd-degree product atoms and no longer cancels.
    def zq_run():
        w = Tensor((Gen(a_u1), Gen(a_u2), Gen(a_u1)))
        ctx = EnvelopeContext(model)
        res = zinfinity_d(ctx, zinfinity_d(ctx, Element.single(w)))
        return ("" if res.is_zero() else element_to_text(res))
    add("zinf_q2_sign_drop", "zinf_square", "T(u1,u2,u1)", zq_run)

    # 8. l2 antisymmetrised instead of symmetrised: Q^2 != 0.
    def l2_run():
        elem = forms_pair((a_u1,), ((a_u1,), (a_u1, a_u1)))
        ctx = EnvelopeContext(model)
        res = q_total(ctx, q_total(ctx, elem))
        return ("" if res.is_zero() else element_to_text(res))
    add("l2_sym_sign_flip", "q_square", "P(T(u1); S(T(u1),T(u1,u1)))", l2_run)

    # 9. wedge without its 1/degree scalar: the Zinbiel axiom fails.  The
    # compatibility axioms are scale-invariant (the same wedge factor appears
    # once on each side), so the Zinbiel defect is where the scalar matters.
    def wedge_run():
        model3 = FormsModel(3)
        x = Element.single(model3.atom((1, 0, 0), ()))
        y = Element.single(model3.atom((0, 1, 0), ()))
        z = Element.single(model3.atom((0, 0, 1), ()))
        d = axiom_defect(model3, AxiomId.ZINBIEL, [x, y, z])
        return "" if d.is_zero() else element_to_text(d)
    add("wedge_scale_drop", "zinbiel", "coordinate functions u1,u2,u3", wedge_run)

    # 10. unsigned embedding: the mixed compatibility law fails.
    def embed_run():
        reg = GeneratorRegistry()
        gens = [Gen(reg.declare("g%d" % i, d)) for i, d in enumerate((1, 2, 3, 4))]
        sign, tail = sym_word([Tensor((gens[2],)), Tensor((gens[3],))], SHIFT2)
        e = Element.single(Pair(Tensor((gens[0], gens[1])), tail), sign)
        chk = check_law(LawId.COMPAT_2, e)
        return ("" if chk.ok else chk.defect_text)
    add("embed_unsigned", "compat_2", "P(T(g0,g1); S(T(g2),T(g3)))", embed_run)

    return out


SUITE_SPECS = {
    "zinbiel-axioms": SuiteSpec(_axiom_suite([AxiomId.ZINBIEL]),
                                frozenset(["forms"]), "forms", samples=200),
    "prelie-axioms": SuiteSpec(_axiom_suite([AxiomId.PRELIE]),
                               frozenset(["forms"]), "forms", samples=200),
    "compat": SuiteSpec(_axiom_suite([AxiomId.COMPAT_A, AxiomId.COMPAT_B, AxiomId.COMPAT_C]),
                        frozenset(["forms"]), "forms", samples=200),
    "aguiar": SuiteSpec(_axiom_suite([AxiomId.AGUIAR_1, AxiomId.AGUIAR_2]),
                        frozenset(["forms"]), "forms", samples=200),
    "gerst-derived": SuiteSpec(_axiom_suite([AxiomId.DERIVED_1, AxiomId.DERIVED_2,
                                             AxiomId.LEIBNIZ_GERST]),
                               frozenset(["forms"]), "forms", samples=200),
    "mu-shuffle-lemma": SuiteSpec(_build_mu_shuffle, frozenset(["formal"]), "formal",
                                  max_tensor_len=6),
    "leibniz-coalgebra": SuiteSpec(_build_leibniz, frozenset(["formal"]), "formal",
                                   max_tensor_len=5),
    "perm-coalgebra": SuiteSpec(_law_on_formal_pairs(LawId.PERM_COALG),
                                frozenset(["formal"]), "formal",
                                samples=100, max_tensor_len=3, max_tail_factors=2),
    "kappa-cojacobi": SuiteSpec(_build_kappa_cojacobi, frozenset(["formal"]), "formal",
                                samples=100, max_tensor_len=3, max_tail_factors=2),
    "kappa-compat": SuiteSpec(_build_kappa_compat, frozenset(["formal"]), "formal",
                              samples=100, max_tensor_len=3, max_tail_factors=2),
    "r2-prelie": SuiteSpec(_build_r2_prelie, frozenset(["forms"]), "forms", samples=100),
    "r2-derivation": SuiteSpec(_build_r2_derivation, frozenset(["forms"]), "forms",
                               samples=100),
    "zinf-square": SuiteSpec(_build_zinf_square, frozenset(["forms"]), "forms",
                             samples=50, max_tensor_len=4),
    "prelinf-square": SuiteSpec(_build_prelinf_square, frozenset(["forms"]), "forms",
                                samples=50),
    "linf-square": SuiteSpec(_build_linf_square, frozenset(["forms"]), "forms",
                             samples=50),
    "q-coderiv-delta": SuiteSpec(_coderiv_suite("delta"), frozenset(["forms"]), "forms",
                                 samples=50, max_tensor_len=2, max_tail_factors=2),
    "q-coderiv-kappa": SuiteSpec(_coderiv_suite("kappa"), frozenset(["forms"]), "forms",
                                 samples=50, max_tensor_len=2, max_tail_factors=2),
    "q-square": SuiteSpec(_build_q_square, frozenset(["forms"]), "forms",
                          samples=50, max_tensor_len=2, max_tail_factors=2),
    "mutation-sanity": SuiteSpec(_build_mutation_sanity, frozenset(["forms"]), "forms"),
}

SUITE_NAMES = sorted(SUITE_SPECS)
