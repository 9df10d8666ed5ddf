"""Enveloping codifferentials, the pre-Lie extension and the coderivation
checkers."""

import random
from fractions import Fraction

import pytest

from pregerst.cooperations import delta_perm, kappa
from pregerst.envelopes import (
    EnvelopeContext,
    check_coderivation,
    check_r2_derivation,
    check_r2_prelie,
    coderivation_m,
    coderivation_q,
    coderivation_r,
    l_infinity_q,
    m_map,
    prelie_envelope_q,
    q_total,
    r2,
    r_map,
    zinfinity_d,
)
from pregerst.errors import UnsupportedModelError
from pregerst.grading import SHIFT1, SHIFT2
from pregerst.models import FormalModel, FormsModel
from pregerst.mutations import single
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    degree,
    element_to_text,
    sym_word,
)


@pytest.fixture
def ctx():
    return EnvelopeContext(FormsModel(2))


def atoms(model):
    return {
        "u1": model.atom((1, 0), ()),
        "u2": model.atom((0, 1), ()),
        "du1": model.atom((0, 0), (1,)),
        "du2": model.atom((0, 0), (2,)),
        "one": model.atom((0, 0), ()),
    }


def rand_word(model, rng, length, max_poly=1):
    return Tensor(tuple(Gen(model.sample_atom(rng, max_poly_degree=max_poly))
                        for _ in range(length)))


def rand_pair(model, rng, max_head=2, max_tails=2, max_tlen=2):
    head = rand_word(model, rng, rng.randint(1, max_head))
    tails = [rand_word(model, rng, rng.randint(1, max_tlen))
             for _ in range(rng.randint(0, max_tails))]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


# ---------------------------------------------------------------------------
# the Zinbiel envelope D
# ---------------------------------------------------------------------------

def test_d_frozen_values(ctx):
    a = atoms(ctx.model)
    # single factor with zero differential
    assert zinfinity_d(ctx, Element.single(Tensor((Gen(a["u1"]),)))).is_zero()
    # two factors: only the head term survives, with the (-1)^{deg} twist
    w = Tensor((Gen(a["u1"]), Gen(a["u2"])))
    assert element_to_text(zinfinity_d(ctx, Element.single(w))) == "1/1 * T(u1.du2)"
    # odd head degree brings a minus: D(du1 (x) u2) = -(du1 /\ du2)
    w2 = Tensor((Gen(a["du1"]), Gen(a["u2"])))
    assert element_to_text(zinfinity_d(ctx, Element.single(w2))) == "-1/1 * T(du1.du2)"
    # and a wedge that vanishes exactly: du1 ^ u1 = du1 /\ du1 = 0
    w3 = Tensor((Gen(a["du1"]), Gen(a["u1"])))
    assert zinfinity_d(ctx, Element.single(w3)).is_zero()


def test_d_squares_to_zero(ctx):
    rng = random.Random(21)
    for trial in range(80):
        w = rand_word(ctx.model, rng, rng.randint(1, 4), 2)
        e = Element.single(w)
        assert zinfinity_d(ctx, zinfinity_d(ctx, e)).is_zero()


def test_d_is_degree_one(ctx):
    rng = random.Random(3)
    for trial in range(40):
        w = rand_word(ctx.model, rng, rng.randint(2, 4))
        out = zinfinity_d(ctx, Element.single(w))
        for word in out.words():
            assert degree(word, SHIFT1) == degree(w, SHIFT1) + 1


def test_d_mutation_breaks_square(ctx):
    a = atoms(ctx.model)
    mut_ctx = EnvelopeContext(ctx.model, single("zinf_q2_sign_drop"))
    w = Tensor((Gen(a["u1"]), Gen(a["u2"]), Gen(a["u1"])))
    assert not zinfinity_d(mut_ctx, zinfinity_d(mut_ctx, Element.single(w))).is_zero()


# ---------------------------------------------------------------------------
# the pre-Lie extension
# ---------------------------------------------------------------------------

def test_r2_frozen_values(ctx):
    a = atoms(ctx.model)
    u1, u2, du1 = Gen(a["u1"]), Gen(a["u2"]), Gen(a["du1"])
    # single letters: plain diamond
    out = r2(ctx, Tensor((u1,)), Tensor((u2,)))
    assert element_to_text(out) == "1/1 * T(u1.u2)"
    # p = 2, q = 1: head pairing against the first letter plus a bracket
    # insertion; the bracket vanishes on forms, and the head-pairing sign is
    # (-1)^{deg(du1) deg(u2)} = +1
    out = r2(ctx, Tensor((u1, du1)), Tensor((u2,)))
    assert element_to_text(out) == "1/1 * T(u1.u2,du1)"
    # deg r2(X,Y) = deg X + deg Y
    rng = random.Random(12)
    for trial in range(30):
        x = rand_word(ctx.model, rng, rng.randint(1, 3))
        y = rand_word(ctx.model, rng, rng.randint(1, 2))
        out = r2(ctx, x, y)
        for w in out.words():
            assert degree(w, SHIFT1) == degree(x, SHIFT1) + degree(y, SHIFT1)


def test_r2_differential_prelie_theorem(ctx):
    rng = random.Random(33)
    for trial in range(60):
        x = Element.single(rand_word(ctx.model, rng, rng.randint(1, 3)))
        y = Element.single(rand_word(ctx.model, rng, rng.randint(1, 2)))
        z = Element.single(rand_word(ctx.model, rng, rng.randint(1, 2)))
        rep = check_r2_prelie(ctx, x, y, z)
        assert rep.ok, rep.defect_text
        rep = check_r2_derivation(ctx, x, y)
        assert rep.ok, rep.defect_text


def test_combined_prelie_and_derivation_report(ctx):
    rng = random.Random(2)
    x = Element.single(rand_word(ctx.model, rng, 2))
    y = Element.single(rand_word(ctx.model, rng, 2))
    z = Element.single(rand_word(ctx.model, rng, 1))
    rel, der = check_r2_prelie(ctx, x, y, z), check_r2_derivation(ctx, x, y)
    assert rel.ok and der.ok


def test_r2_reduces_to_the_model_prelie_axiom(ctx):
    # on single-letter words the relation is the model's pre-Lie defect
    a = atoms(ctx.model)
    for trip in [("u1", "u2", "du1"), ("du1", "u1", "du2")]:
        x, y, z = (Element.single(Tensor((Gen(a[n]),))) for n in trip)
        assert check_r2_prelie(ctx, x, y, z).ok


def test_r2_mutations_detected(ctx):
    a = atoms(ctx.model)
    mut = single("r2_bracket_plus")
    mctx = EnvelopeContext(ctx.model, mut)
    x = Element.single(Tensor((Gen(a["u1"]), Gen(a["u1"]))))
    y = Element.single(Tensor((Gen(a["u1"]),)))
    assert not check_r2_derivation(mctx, x, y).ok
    # unsigned shuffles are caught by the mu-kills-shuffles lemma
    from pregerst.words import mu, shuffle_product
    from pregerst.grading import GeneratorRegistry
    reg = GeneratorRegistry()
    g1, g2 = Gen(reg.declare("g1", 2)), Gen(reg.declare("g2", 2))
    sh = shuffle_product(Tensor((g1,)), Tensor((g2,)), SHIFT1, single("shuffle_unsigned"))
    assert not mu(2, sh, SHIFT1).is_zero()


def test_formal_model_rejected(ctx):
    formal = EnvelopeContext(FormalModel())
    g = Gen(formal.model.generator("x", 2))
    with pytest.raises(UnsupportedModelError):
        zinfinity_d(formal, Element.single(Tensor((g,))))
    with pytest.raises(UnsupportedModelError):
        r2(formal, Tensor((g,)), Tensor((g,)))


# ---------------------------------------------------------------------------
# generator-level envelopes
# ---------------------------------------------------------------------------

def test_prelie_envelope_square(ctx):
    rng = random.Random(8)
    for trial in range(60):
        head = Gen(ctx.model.sample_atom(rng, max_poly_degree=1))
        facs = [Gen(ctx.model.sample_atom(rng, max_poly_degree=1))
                for _ in range(rng.randint(0, 3))]
        sign, tail = sym_word(facs, SHIFT2)
        if tail is None:
            continue
        e = Element.single(Pair(head, tail), sign)
        assert prelie_envelope_q(ctx, prelie_envelope_q(ctx, e)).is_zero()


def test_prelie_envelope_frozen_shape(ctx):
    a = atoms(ctx.model)
    # with d = 0 and one tail factor, only the head pairing survives;
    # deg'(u1) = -1 is odd, so the twist contributes a minus
    e = Element.single(Pair(Gen(a["u1"]), Sym((Gen(a["u2"]),))))
    out = prelie_envelope_q(ctx, e)
    assert element_to_text(out) == "-1/1 * P(u1.u2; S())"
    assert prelie_envelope_q(ctx, Element.single(Pair(Gen(a["u1"]), Sym(())))).is_zero()


def test_l_infinity_binary_part_is_the_induced_bracket(ctx):
    # on two symmetric factors the output is (-1)^{deg'x} [x, y]; the bracket
    # antisymmetrised from the exterior product vanishes identically on forms
    # (graded commutativity), so the envelope map is zero there
    a = atoms(ctx.model)
    sign, w = sym_word([Gen(a["u1"]), Gen(a["du1"])], SHIFT2)
    e = Element.single(w, sign)
    assert ctx.model.bracket({a["u1"]: Fraction(1)}, {a["du1"]: Fraction(1)}).is_zero()
    assert l_infinity_q(ctx, e).is_zero()
    assert l_infinity_q(ctx, Element.single(Sym((Gen(a["u2"]),)))).is_zero()


def test_l_infinity_square(ctx):
    rng = random.Random(10)
    for trial in range(60):
        facs = [Gen(ctx.model.sample_atom(rng, max_poly_degree=1))
                for _ in range(rng.randint(1, 3))]
        sign, w = sym_word(facs, SHIFT2)
        if w is None:
            continue
        e = Element.single(w, sign)
        assert l_infinity_q(ctx, l_infinity_q(ctx, e)).is_zero()


# ---------------------------------------------------------------------------
# Q = m + R on pair words over tensor words
# ---------------------------------------------------------------------------

def test_q_frozen_values(ctx):
    a = atoms(ctx.model)
    u1, u2 = Gen(a["u1"]), Gen(a["u2"])
    # bare head: Q = D(head) (x) 1
    e0 = Element.single(Pair(Tensor((u1, u2)), Sym(())))
    assert element_to_text(q_total(ctx, e0)) == "1/1 * P(T(u1.du2); S())"
    # single-letter head and tail: the head pairing with its deg' twist
    eb = Element.single(Pair(Tensor((u1,)), Sym((Tensor((u2,)),))))
    assert element_to_text(q_total(ctx, eb)) == "-1/1 * P(T(u1.u2); S())"


def test_q_squares_to_zero(ctx):
    rng = random.Random(42)
    checked = 0
    for trial in range(60):
        e = rand_pair(ctx.model, rng)
        if e is None:
            continue
        checked += 1
        assert q_total(ctx, q_total(ctx, e)).is_zero(), element_to_text(e)
    assert checked >= 40


def test_q_is_degree_one(ctx):
    rng = random.Random(51)
    for trial in range(30):
        e = rand_pair(ctx.model, rng)
        if e is None:
            continue
        word = next(iter(e.terms))
        k = degree(word, SHIFT2)
        for w in q_total(ctx, e).words():
            assert degree(w, SHIFT2) == k + 1


def test_m_r_q_are_coderivations_of_delta(ctx):
    rng = random.Random(33)
    cop = lambda e: delta_perm(e, SHIFT2)
    maps = [coderivation_m(ctx), coderivation_r(ctx), coderivation_q(ctx)]
    checked = 0
    for trial in range(40):
        e = rand_pair(ctx.model, rng)
        if e is None:
            continue
        checked += 1
        for cod in maps:
            rep = check_coderivation(cop, 0, cod, e)
            assert rep.ok, "%s: %s" % (cod.label, rep.defect_text)
    assert checked >= 30


def test_m_is_a_coderivation_of_kappa(ctx):
    rng = random.Random(60)
    cop = lambda e: kappa(e, SHIFT2)
    m = coderivation_m(ctx)
    checked = 0
    for trial in range(40):
        e = rand_pair(ctx.model, rng)
        if e is None:
            continue
        checked += 1
        rep = check_coderivation(cop, 1, m, e)
        assert rep.ok, rep.defect_text
    assert checked >= 30


def test_r_kappa_coderivation_defect_is_real(ctx):
    # The R half of the candidate codifferential is NOT a coderivation of the
    # degree-one cocrochet; this pins the minimal counterexample so the
    # documented failure stays reproducible (see the decisions ledger).
    a = atoms(ctx.model)
    u1, u2, du1 = Gen(a["u1"]), Gen(a["u2"]), Gen(a["du1"])
    sign, tail = sym_word([Tensor((u2, du1))], SHIFT2)
    e = Element.single(Pair(Tensor((u1,)), tail), sign)
    cop = lambda x: kappa(x, SHIFT2)
    rep = check_coderivation(cop, 1, coderivation_r(ctx), e)
    assert not rep.ok
    # while the m half on the same instance is fine
    assert check_coderivation(cop, 1, coderivation_m(ctx), e).ok


def test_mutated_m_fails_delta_coderivation(ctx):
    a = atoms(ctx.model)
    u1 = Gen(a["u1"])
    sign, tail = sym_word([Tensor((u1, u1))], SHIFT2)
    e = Element.single(Pair(Tensor((u1,)), tail), sign)
    mctx = EnvelopeContext(ctx.model, single("m_tail_sign_drop"))
    cop = lambda x: delta_perm(x, SHIFT2)
    rep = check_coderivation(cop, 0, coderivation_m(mctx), e)
    assert not rep.ok


def test_q_linear(ctx):
    rng = random.Random(77)
    e1 = rand_pair(ctx.model, rng)
    e2 = rand_pair(ctx.model, rng)
    assert e1 is not None and e2 is not None
    lhs = q_total(ctx, e1.scaled(Fraction(2, 3)) + e2.scaled(-5))
    rhs = q_total(ctx, e1).scaled(Fraction(2, 3)) + q_total(ctx, e2).scaled(-5)
    assert lhs == rhs
