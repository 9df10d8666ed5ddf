"""Exact coefficients and the cached sign tables of mu and the shuffles.

Coefficients are ints while they are integral and Fractions after a real
division; a float never gets in.  mu_word and shuffle_product read their signs
from tables cached per odd-degree pattern; here they are compared with a
reference that calls koszul_sign once per permutation.
"""

import hashlib
import itertools
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

from pregerst.cooperations import kappa
from pregerst.envelopes import EnvelopeContext, q_total
from pregerst.grading import (
    SHIFT1,
    SHIFT2,
    GeneratorRegistry,
    Permutation,
    koszul_sign,
    shuffles,
)
from pregerst.models import FormsModel
from pregerst.mutations import mutant
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Tensor,
    element_to_text,
    mu,
    mu_word,
    parse_element,
    shuffle_product,
    sym_word,
)

MAX_N = 6


def pattern_word(n, mask):
    """Distinct generators whose deg (SHIFT1) parity is bit i of mask."""
    reg = GeneratorRegistry()
    return Tensor(tuple(Gen(reg.declare("x%d" % i, ((mask >> i) & 1) + 1))
                        for i in range(n)))


def placed(factors, perm):
    out = [None] * len(factors)
    for i, f in enumerate(factors):
        out[perm(i + 1) - 1] = f
    return Tensor(out)


def reference_mu_terms(n, mu2_identity):
    """mu_1 = id, mu_k = mu_{k-1} x id - (mu_{k-1} x id) o (inverse k-cycle)."""
    terms = [(Permutation.identity(1), 1)]
    for k in range(2, n + 1):
        extended = [(Permutation(p.images + (k,)), c) for p, c in terms]
        if k == 2 and mu2_identity:
            terms = extended
            continue
        cycle_inv = Permutation((k,) + tuple(range(1, k)))
        terms = extended + [(p.compose(cycle_inv), -c) for p, c in extended]
    return terms


def reference_mu(word, mu2_identity):
    degs = [f.gen.degree - 1 for f in word.factors]
    out = Element()
    for perm, c in reference_mu_terms(len(degs), mu2_identity):
        out.add_term(placed(word.factors, perm), c * koszul_sign(degs, perm))
    return out


def reference_shuffle(factors, p, unsigned):
    degs = [f.gen.degree - 1 for f in factors]
    out = Element()
    for perm in shuffles(p, len(factors) - p):
        out.add_term(placed(factors, perm), 1 if unsigned else koszul_sign(degs, perm))
    return out


@pytest.mark.parametrize("mu2_identity", [False, True])
def test_mu_word_matches_per_permutation_reference(mu2_identity):
    with mutant("mu2_identity") if mu2_identity else nullcontext():
        for n in range(1, MAX_N + 1):
            for mask in range(1 << n):
                word = pattern_word(n, mask)
                assert mu_word(word, SHIFT1) == reference_mu(word, mu2_identity), (n, mask)


@pytest.mark.parametrize("unsigned", [False, True])
def test_shuffle_product_matches_per_permutation_reference(unsigned):
    with mutant("shuffle_unsigned") if unsigned else nullcontext():
        for n in range(2, MAX_N + 1):
            for mask in range(1 << n):
                factors = pattern_word(n, mask).factors
                for p in range(1, n):
                    got = shuffle_product(Tensor(factors[:p]), Tensor(factors[p:]), SHIFT1)
                    assert got == reference_shuffle(factors, p, unsigned), (n, mask, p)


def test_mu_sums_the_images_of_its_words():
    reg = GeneratorRegistry()
    a, b, c = (Gen(reg.declare(name, deg)) for name, deg in (("a", 2), ("b", 1), ("c", 2)))
    elem = Element({Tensor((a, b, c)): Fraction(2, 3), Tensor((c, a, b)): -5})
    expected = (mu_word(Tensor((a, b, c)), SHIFT1).scaled(Fraction(2, 3))
                + mu_word(Tensor((c, a, b)), SHIFT1).scaled(-5))
    assert mu(3, elem, SHIFT1) == expected


def seeded_mu_sums(seed):
    """(n, element) pairs over tensor words of length n: rearrangements of
    distinct factors, words with a repeated factor, words from two multisets
    in one sum, shuffle sums that mu cancels, with int, negative and Fraction
    coefficients; the first word decides whether a sum starts distinct."""
    rng = random.Random(seed)

    def coeff():
        return rng.choice((1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)))

    out = []
    for n in range(2, MAX_N):
        reg = GeneratorRegistry()
        gens = [Gen(reg.declare("g%d" % i, rng.randint(1, 2))) for i in range(n + 2)]
        base = gens[:n]
        other = gens[1:n + 1]
        repeated = [gens[0]] * 2 + gens[2:n]

        def rearranged(factors, count):
            return [Tensor(rng.sample(factors, len(factors))) for _ in range(count)]

        sums = [
            rearranged(base, 6),
            rearranged(repeated, 3),
            rearranged(base, 4) + rearranged(other, 3),
            rearranged(base, 3) + rearranged(repeated, 2) + rearranged(other, 2),
            rearranged(repeated, 2) + rearranged(base, 3),
        ]
        for words in sums:
            elem = Element()
            for w in words:
                elem.add_term(w, coeff())
            out.append((n, elem))
        for p in range(1, n):
            sh = shuffle_product(Tensor(base[:p]), Tensor(base[p:]), SHIFT1)
            out.append((n, sh.scaled(coeff())))
            out.append((n, sh + Element.single(Tensor(rng.sample(base, n)), coeff())))
    return out


# sha256 of the text of mu of every seeded sum, clean and with mu2_identity
MU_SUMS_SHA256 = {
    False: "06bf539ab2148b1ddc14126b8fdc4da5bce2ea8975173885d6817ca5ca7ceda7",
    True: "d57345f0f282097f9afcefe9f4ea1ec353df43335bf9eea0b899fe3660731d89",
}


@pytest.mark.parametrize("mu2_identity", [False, True])
def test_mu_on_sums_matches_per_permutation_reference(mu2_identity):
    with mutant("mu2_identity") if mu2_identity else nullcontext():
        lines = []
        for seed in range(4):
            for n, elem in seeded_mu_sums(seed):
                expected = Element()
                for w, c in elem.items():
                    expected = expected + reference_mu(w, mu2_identity).scaled(c)
                got = mu(n, elem, SHIFT1)
                assert got == expected, (seed, n, element_to_text(elem))
                lines.append(element_to_text(got))
    # clean, mu kills the shuffle sums
    assert any(line == "0" for line in lines) != mu2_identity
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == MU_SUMS_SHA256[mu2_identity]


def exact(coeffs):
    return all(type(c) in (int, Fraction) for c in coeffs)


def test_shuffle_and_mu_coefficients_stay_ints():
    for mask in range(1 << 4):
        factors = pattern_word(4, mask).factors
        sh = shuffle_product(Tensor(factors[:2]), Tensor(factors[2:]), SHIFT1)
        assert all(type(c) is int for _, c in sh.items())
        assert all(type(c) is int for _, c in mu(4, sh, SHIFT1).items())


def random_pair(rng, new_atom):
    """A pair word with a head of 1-3 atoms and 0-2 tail factors of 1-2 atoms."""
    head = Tensor(tuple(Gen(new_atom()) for _ in range(rng.randint(1, 3))))
    tails = [Tensor(tuple(Gen(new_atom()) for _ in range(rng.randint(1, 2))))
             for _ in range(rng.randint(0, 2))]
    sign, tail = sym_word(tails, SHIFT2)
    return None if tail is None else Element.single(Pair(head, tail), sign)


def test_kappa_and_q_coefficients_are_exact():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    rng = random.Random(3)
    reg = GeneratorRegistry()
    names = itertools.count()
    seen = 0
    for _ in range(30):
        formal = random_pair(rng, lambda: reg.declare("g%d" % next(names),
                                                      rng.randint(1, 4)))
        if formal is not None:
            assert exact(c for _, c in kappa(formal).items())
        forms = random_pair(rng, lambda: model.sample_atom(rng, max_poly_degree=1))
        if forms is not None:
            q = q_total(ctx, forms)
            assert exact(c for _, c in q.items())
            assert exact(c for _, c in q_total(ctx, q).items())
            seen += len(q)
    assert seen > 0


def test_forms_operations_are_exact_and_divide_only_by_degree():
    model = FormsModel(2)
    rng = random.Random(5)
    fractions_seen = 0
    for _ in range(40):
        x, y = model.sample_form(rng), model.sample_form(rng)
        assert all(type(c) is int for c in x.terms.values())
        for op in (model.wedge, model.diamond, model.bracket, model.dot):
            out = op(x, y)
            assert exact(out.terms.values())
            fractions_seen += sum(type(c) is Fraction for c in out.terms.values())
    # the wedge's 1/|y| makes some coefficients Fractions
    assert fractions_seen > 0
    u1, u2 = model.atom((1, 0), ()), model.atom((0, 1), ())
    assert type(model.wedge({u1: 1}, {u2: 1}).terms[model.atom((1, 0), (2,))]) is int


def test_float_scalars_become_fractions():
    reg = GeneratorRegistry()
    w = Tensor((Gen(reg.declare("a", 2)),))
    assert Element.single(w, 0.5).terms == {w: Fraction(1, 2)}
    assert type(Element.single(w, 0.5).terms[w]) is Fraction
    assert type(Element.single(w).scaled(0.25).terms[w]) is Fraction
    assert type(Element.single(w).scaled(3).terms[w]) is int


def test_float_coefficients_of_a_mapping_become_fractions():
    # the mapping constructor is a scalar entry point too, and every model
    # operation takes a mapping through it
    model = FormsModel(2)
    u1, u2 = model.atom((1, 0), ()), model.atom((0, 1), ())
    assert Element({u1: 0.5}).terms == {u1: Fraction(1, 2)}
    assert type(Element({u1: 0.5}).terms[u1]) is Fraction
    assert type(Element({u1: 2}).terms[u1]) is int
    product = model.wedge({u1: 0.5}, {u2: 1})
    assert exact(product.terms.values())
    assert element_to_text(product) == "1/2 * u1.du2"


def test_int_element_equals_its_fraction_twin():
    reg = GeneratorRegistry()
    a, b = Gen(reg.declare("a", 2)), Gen(reg.declare("b", 3))
    ints = Element({Tensor((a, b)): 2, Tensor((b, a)): -1})
    fracs = Element({Tensor((a, b)): Fraction(2), Tensor((b, a)): Fraction(-1)})
    assert ints == fracs
    assert (ints - fracs).is_zero()


def test_parsed_integers_stay_ints():
    reg = GeneratorRegistry()
    reg.declare("a", 2)
    elem = parse_element("2 * T(a)", reg)
    assert [type(c) for _, c in elem.items()] == [int]
    elem = parse_element("4/2 * T(a)", reg)
    assert [c for _, c in elem.items()] == [2]
