"""The five lifts against a textbook reference: the Element-based lift that
applies its slot maps afresh on every call, compared term by term, with
coefficient types, over the forms model with and without its exterior
differential and over the free operations.  The reference catches the
curated faults of the lift's signs."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from pregerst.envelopes import (
    EnvelopeContext,
    l_infinity_q,
    m_map,
    prelie_envelope_q,
    q_total,
    r2,
    r_map,
    zinfinity_d,
)
from pregerst.grading import SHIFT2, Generator
from pregerst.models import FormalModel, FormsModel
from pregerst.mutations import mutant
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    canonical_term,
    degree,
    sym_insert,
)


def reference_lift(ctx, elem, unary, binary):
    """The coderivation with corestriction unary(ctx, w) and binary(ctx, a,
    b), built with Element arithmetic for every slot: unary at the head,
    head-signed unary at each tail factor sorted back in, binary(head, t_j)
    as the new head, and head-signed binary(t_i, t_j) + (-1)^{t_i t_j}
    binary(t_j, t_i) sorted into the rest of the tail."""
    out = Element()
    add = out.add_term
    for word, coeff in elem.items():
        is_pair = type(word) is Pair
        factors = word.tail.factors if is_pair else word.factors
        word, coeff = canonical_term(word, coeff, factors, SHIFT2)
        if word is None:
            continue
        head, tail = (word.head, word.tail) if is_pair else (None, word)
        factors = tail.factors
        n = len(factors)
        tdegs = [degree(f, SHIFT2) for f in factors]
        head_sign = -1 if is_pair and degree(head, SHIFT2) & 1 else 1
        eps = []
        odd = 0
        for t in tdegs:
            eps.append(-1 if t & odd & 1 else 1)
            odd ^= t & 1
        if unary is not None:
            if is_pair:
                for w, c in unary(ctx, head).items():
                    add(Pair(w, tail), coeff * c)
            for j in range(n):
                rest = factors[:j] + factors[j + 1:]
                tail_coeff = coeff * head_sign * eps[j]
                for w, c in unary(ctx, factors[j]).items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        add(Pair(head, sw) if is_pair else sw, tail_coeff * c * s)
        if binary is None:
            continue
        if is_pair:
            for j in range(n):
                rest_sym = Sym(factors[:j] + factors[j + 1:])
                for w, c in binary(ctx, head, factors[j]).items():
                    add(Pair(w, rest_sym), coeff * eps[j] * c)
        for i in range(n):
            for j in range(i + 1, n):
                swap = -1 if tdegs[i] & tdegs[j] & 1 else 1
                pair_coeff = coeff * head_sign * eps[i] * eps[j] * swap
                image = (binary(ctx, factors[i], factors[j])
                         + binary(ctx, factors[j], factors[i]).scaled(swap))
                rest = factors[:i] + factors[i + 1:j] + factors[j + 1:]
                for w, c in image.items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        add(Pair(head, sw) if is_pair else sw, pair_coeff * c * s)
    return out


# the slot maps, each applied afresh through the public maps or the model

def d_word(ctx, w):
    return zinfinity_d(ctx, Element.single(w))


def r2_shifted(ctx, x, y):
    res = r2(ctx, x, y)
    return -res if degree(x, SHIFT2) & 1 else res


def d_atom(ctx, a):
    return Element({Gen(g): c for g, c in ctx.model.differential_atom(a.gen).items()})


def diamond_shifted(ctx, a, b):
    product = Element({Gen(g): c for g, c in ctx.model.diamond_atoms(a.gen, b.gen).items()})
    return -product if degree(a, SHIFT2) & 1 else product


LIFTS = [
    ("m_map", m_map, d_word, None, "tensor"),
    ("r_map", r_map, None, r2_shifted, "tensor"),
    ("q_total", q_total, d_word, r2_shifted, "tensor"),
    ("prelie_envelope_q", prelie_envelope_q, d_atom, diamond_shifted, "atom"),
    ("l_infinity_q", l_infinity_q, d_atom, diamond_shifted, "sym"),
]

FORMAL_ATOMS = [Generator(name, d) for name, d in (("a", 1), ("b", 2), ("c", 3), ("e", 2))]

MODELS = {
    "forms": lambda: FormsModel(2),
    "forms-d": lambda: FormsModel(2, exterior_differential=True),
    "formal": FormalModel,
}


def sample_atom(model, rng):
    if isinstance(model, FormalModel):
        return Gen(rng.choice(FORMAL_ATOMS))
    return Gen(model.sample_atom(rng, max_poly_degree=2))


def sample_word(model, rng, kind):
    """One word of the lift's space.  Tails are built as given, so some are
    out of canonical order and some repeat an odd factor."""
    def tensor(length):
        return Tensor(tuple(sample_atom(model, rng) for _ in range(length)))
    if kind == "sym":
        return Sym(tuple(sample_atom(model, rng) for _ in range(rng.randint(1, 4))))
    if kind == "atom":
        head = sample_atom(model, rng)
        tails = [sample_atom(model, rng) for _ in range(rng.randint(0, 3))]
    else:
        head = tensor(rng.randint(1, 3))
        tails = [tensor(rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
    return Pair(head, Sym(tuple(tails)))


def sample_element(model, rng, kind):
    elem = Element()
    for _ in range(rng.randint(1, 3)):
        elem.add_term(sample_word(model, rng, kind),
                      rng.choice((1, -2, 3, Fraction(1, 2), Fraction(-2, 3))))
    return elem


def typed(elem):
    return {key: (c, type(c)) for key, c in elem.terms.items()}


def mismatches(model_name, seed, samples):
    """(lift, input) for each sampled input where the lift and the reference
    differ, and per lift the number of comparisons with a nonzero reference."""
    model = MODELS[model_name]()
    rng = random.Random(seed)
    bad, nonzero = [], Counter()
    for _ in range(samples):
        for name, lift, unary, binary, kind in LIFTS:
            elem = sample_element(model, rng, kind)
            expected = reference_lift(EnvelopeContext(model), elem, unary, binary)
            got = lift(EnvelopeContext(model), elem)
            nonzero[name] += not expected.is_zero()
            if typed(got) != typed(expected):
                bad.append((name, elem))
    return bad, nonzero


@pytest.mark.parametrize("model_name", sorted(MODELS))
def test_every_lift_equals_the_reference_term_by_term(model_name):
    bad, nonzero = mismatches(model_name, 5150, 40)
    assert bad == []
    # on forms with d = 0 the bracket induced by the diamond vanishes, and
    # l_infinity_q with it
    vanishing = {"l_infinity_q"} if model_name == "forms" else set()
    assert all(nonzero[name] >= 15 for name, *_ in LIFTS if name not in vanishing)


def test_a_warm_context_gives_the_reference_too():
    model = FormsModel(2, exterior_differential=True)
    ctx = EnvelopeContext(model)
    rng = random.Random(5151)
    for _ in range(40):
        for name, lift, unary, binary, kind in LIFTS:
            elem = sample_element(model, rng, kind)
            assert typed(lift(ctx, elem)) == typed(
                reference_lift(EnvelopeContext(model), elem, unary, binary)), name


@pytest.mark.parametrize("name", ["l2_sym_sign_flip", "m_tail_sign_drop"])
def test_the_reference_catches_the_lift_mutants(name):
    with mutant(name):
        bad, _ = mismatches("forms", 5150, 40)
    assert bad
