"""Words, elements, normalization, products and serialization."""

import itertools
import random
from fractions import Fraction

import pytest

from pregerst.errors import ParseError, SchemaError, TermBudgetExceeded
from pregerst.grading import SHIFT1, SHIFT2, GeneratorRegistry
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    degree,
    element_to_text,
    embed_sym_into_pair,
    get_term_cap,
    mu,
    normalize,
    parse_element,
    set_term_cap,
    shuffle_product,
    shuffle_terms,
    sym_product,
    sym_word,
    word_to_text,
)


@pytest.fixture
def reg():
    return GeneratorRegistry()


def gens(reg, spec):
    return [Gen(reg.declare(name, deg)) for name, deg in spec]


def test_degrees_of_composite_words(reg):
    a, b = gens(reg, [("a", 3), ("b", 2)])
    w = Tensor((a, b))
    assert degree(a, SHIFT1) == 2
    assert degree(w, SHIFT1) == 2 + 1
    assert degree(w, SHIFT2) == 2
    s = Sym((w,))
    assert degree(s, SHIFT2) == 2
    p = Pair(w, Sym(()))
    assert degree(p, SHIFT2) == 2


def test_normalize_cancellation(reg):
    (a,) = gens(reg, [("a", 2)])
    w = Tensor((a,))
    e = Element()
    e.add_term(w, 2)
    e.add_term(w, -2)
    assert e.is_zero()


def test_normalize_sorting_sign(reg):
    # Sym[Y,X] with deg' X = 0, deg' Y = 1 and X < Y: single transposition,
    # Koszul sign (-1)^{0*1} = +1
    x, y = gens(reg, [("x", 2), ("y", 3)])
    raw = Element.single(Sym((Tensor((y,)), Tensor((x,)))))
    out = normalize(raw, SHIFT2)
    assert element_to_text(out) == "1/1 * S(T(x),T(y))"
    # both odd: the transposition flips the sign
    u, v = gens(reg, [("u", 3), ("v", 3)])
    raw = Element.single(Sym((Tensor((v,)), Tensor((u,)))))
    out = normalize(raw, SHIFT2)
    assert element_to_text(out) == "-1/1 * S(T(u),T(v))"


def test_odd_square_annihilation(reg):
    (x,) = gens(reg, [("x", 3)])  # deg' = 1, odd
    sign, word = sym_word([Tensor((x,)), Tensor((x,))], SHIFT2)
    assert word is None and sign == 0
    (y,) = gens(reg, [("y", 2)])  # deg' = 0, even squares survive
    sign, word = sym_word([Tensor((y,)), Tensor((y,))], SHIFT2)
    assert sign == 1 and word is not None


def test_normalize_idempotent_on_random_raw_elements():
    rng = random.Random(11)
    names = "abcdef"
    for trial in range(10000):
        reg = GeneratorRegistry()
        atoms = [Gen(reg.declare(names[i], rng.randint(1, 4))) for i in range(4)]
        factors = [Tensor((rng.choice(atoms),)) for _ in range(rng.randint(0, 3))]
        word = Sym(tuple(factors))
        raw = Element({word: rng.choice([-2, -1, 1, 2])})
        once = normalize(raw, SHIFT2)
        assert normalize(once, SHIFT2) == once


def test_normalize_rejects_mixed_schemas(reg):
    a, b = gens(reg, [("a", 2), ("b", 2)])
    e = Element()
    e.add_term(Tensor((a,)), 1)
    e.add_term(Sym((Tensor((b,)),)), 1)
    with pytest.raises(SchemaError):
        normalize(e, SHIFT1)


def test_shuffle_product_examples(reg):
    x, y = gens(reg, [("x", 1), ("y", 1)])  # deg 0
    out = shuffle_product(Tensor((x,)), Tensor((y,)), SHIFT1)
    assert element_to_text(out) == "1/1 * T(x,y) + 1/1 * T(y,x)"
    u, v = gens(reg, [("u", 2), ("v", 2)])  # deg 1
    out = shuffle_product(Tensor((u,)), Tensor((v,)), SHIFT1)
    assert element_to_text(out) == "1/1 * T(u,v) + -1/1 * T(v,u)"
    a, b, c = gens(reg, [("a", 1), ("b", 1), ("c", 1)])
    out = shuffle_product(Tensor((a, b)), Tensor((c,)), SHIFT1)
    assert len(out) == 3


def test_shuffle_terms_on_an_empty_side(reg):
    a, b, c = gens(reg, [("a", 2), ("b", 2), ("c", 1)])
    # an empty side leaves the other unshuffled, as a list or a tuple
    assert shuffle_terms((a, b), (), SHIFT1) == {(a, b): 1}
    assert shuffle_terms([], [c], SHIFT1) == {(c,): 1}
    # two empty sides give the empty tuple, the unit of the shuffle product
    assert shuffle_terms((), (), SHIFT1) == {(): 1}
    # otherwise the factor tuples and signs of shuffle_product's terms
    terms = shuffle_terms((a,), (b, c), SHIFT1)
    assert all(type(k) is tuple for k in terms)
    sh = shuffle_product(Tensor((a,)), Tensor((b, c)), SHIFT1)
    assert {w.factors: s for w, s in sh.items()} == terms


def test_shuffle_graded_commutative_and_associative():
    rng = random.Random(5)
    for trial in range(60):
        reg = GeneratorRegistry()
        total = rng.randint(2, 6)
        atoms = [Gen(reg.declare("g%d" % i, rng.randint(1, 4))) for i in range(total)]
        p = rng.randint(1, total - 1)
        left, right = Tensor(tuple(atoms[:p])), Tensor(tuple(atoms[p:]))
        ab = shuffle_product(left, right, SHIFT1)
        ba = shuffle_product(right, left, SHIFT1)
        sign = -1 if (degree(left, SHIFT1) & 1 and degree(right, SHIFT1) & 1) else 1
        assert ab == ba.scaled(sign)
    # associativity by full expansion of both groupings
    for trial in range(25):
        reg = GeneratorRegistry()
        lens = [rng.randint(1, 2) for _ in range(3)]
        atoms = [Gen(reg.declare("g%d" % i, rng.randint(1, 3))) for i in range(sum(lens))]
        it = iter(atoms)
        ws = [Tensor(tuple(next(it) for _ in range(L))) for L in lens]

        def sh_elems(e1, e2):
            out = Element()
            for w1, c1 in e1.items():
                for w2, c2 in e2.items():
                    for w, c in shuffle_product(w1, w2, SHIFT1).items():
                        out.add_term(w, c1 * c2 * c)
            return out

        singles = [Element.single(w) for w in ws]
        lhs = sh_elems(sh_elems(singles[0], singles[1]), singles[2])
        rhs = sh_elems(singles[0], sh_elems(singles[1], singles[2]))
        assert lhs == rhs


def test_mu_base_and_unfolding(reg):
    (x,) = gens(reg, [("x", 5)])
    assert mu(1, Tensor((x,)), SHIFT1) == Element.single(Tensor((x,)))
    a, b = gens(reg, [("a", 2), ("b", 3)])  # deg 1, 2
    out = mu(2, Tensor((a, b)), SHIFT1)
    # mu_2(x (x) y) = x(x)y - (-1)^{deg x deg y} y(x)x; exponent 1*2 even
    assert element_to_text(out) == "1/1 * T(a,b) + -1/1 * T(b,a)"
    c, d = gens(reg, [("c", 2), ("d", 2)])
    out = mu(2, Tensor((c, d)), SHIFT1)
    assert element_to_text(out) == "1/1 * T(c,d) + 1/1 * T(d,c)"


def test_mu_is_degree_zero():
    rng = random.Random(9)
    for n in range(1, 6):
        reg = GeneratorRegistry()
        atoms = [Gen(reg.declare("g%d" % i, rng.randint(1, 4))) for i in range(n)]
        w = Tensor(tuple(atoms))
        d = degree(w, SHIFT1)
        out = mu(n, w, SHIFT1)
        for word in out.words():
            assert degree(word, SHIFT1) == d


def test_mu_kills_shuffles_small():
    # exhaustive for p+q <= 4 over deg patterns {0,1,2}
    for total in range(2, 5):
        for pattern in itertools.product((0, 1, 2), repeat=total):
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("g%d" % i, d + 1)) for i, d in enumerate(pattern)]
            for p in range(1, total):
                sh = shuffle_product(Tensor(tuple(atoms[:p])), Tensor(tuple(atoms[p:])), SHIFT1)
                assert mu(total, sh, SHIFT1).is_zero()


def test_mu_length_mismatch(reg):
    a, b = gens(reg, [("a", 2), ("b", 2)])
    with pytest.raises(SchemaError):
        mu(3, Tensor((a, b)), SHIFT1)


def test_sym_product_rules(reg):
    x, y = gens(reg, [("x", 2), ("y", 3)])
    sx = Element.single(Sym((Tensor((x,)),)))
    sy = Element.single(Sym((Tensor((y,)),)))
    assert element_to_text(sym_product(sx, sy, SHIFT2)) == "1/1 * S(T(x),T(y))"
    (z,) = gens(reg, [("z", 3)])  # deg' odd: odd square dies
    sz = Element.single(Sym((Tensor((z,)),)))
    assert sym_product(sz, sz, SHIFT2).is_zero()


def test_sym_product_associative_commutative():
    rng = random.Random(21)
    for trial in range(60):
        reg = GeneratorRegistry()
        words = []
        for i in range(3):
            n = rng.randint(1, 2)
            facs = [Tensor((Gen(reg.declare("g%d_%d" % (i, j), rng.randint(1, 4))),))
                    for j in range(n)]
            sign, w = sym_word(facs, SHIFT2)
            words.append(Element.single(w, sign))
        a, b, c = words
        assert sym_product(sym_product(a, b, SHIFT2), c, SHIFT2) == \
            sym_product(a, sym_product(b, c, SHIFT2), SHIFT2)
        da = a.homogeneous_degree(SHIFT2)
        db = b.homogeneous_degree(SHIFT2)
        sign = -1 if (da & 1 and db & 1) else 1
        assert sym_product(a, b, SHIFT2) == sym_product(b, a, SHIFT2).scaled(sign)


def test_generators_sharing_a_name_sort_by_degree():
    # two generators with one name and different degrees must not tie in the
    # sort order, or sym_word keeps the order given and one product has two forms
    a2 = Gen(GeneratorRegistry().declare("a", 2))
    a3 = Gen(GeneratorRegistry().declare("a", 3))
    s1, w1 = sym_word([a2, a3], SHIFT1)
    s2, w2 = sym_word([a3, a2], SHIFT1)
    assert w1 is w2 and w1.factors == (a2, a3) and s1 == s2 == 1
    total = Element.single(w1, s1) + Element.single(w2, s2)
    assert element_to_text(total) == "2/1 * S(a,a)"
    # a2 is odd in SHIFT1, and its two copies now meet
    assert sym_word([a2, a3, a2], SHIFT1) == (0, None)


def test_embed_examples(reg):
    x, y = gens(reg, [("x", 2), ("y", 2)])  # deg' 0
    out = embed_sym_into_pair(Sym((Tensor((x,)),)), SHIFT2)
    assert element_to_text(out) == "1/1 * P(T(x); S())"
    out = embed_sym_into_pair(Sym((Tensor((x,)), Tensor((y,)))), SHIFT2)
    assert element_to_text(out) == \
        "1/1 * P(T(x); S(T(y))) + 1/1 * P(T(y); S(T(x)))"
    with pytest.raises(SchemaError):
        embed_sym_into_pair(Sym(()), SHIFT2)


def test_empty_sym_only_inside_pair(reg):
    (a,) = gens(reg, [("a", 2)])
    Pair(Tensor((a,)), Sym(()))  # fine
    with pytest.raises(SchemaError):
        Pair(Sym(()), Sym(()))  # head must be a generator or tensor word
    with pytest.raises(SchemaError):
        Tensor(())


def test_serialization_round_trip():
    rng = random.Random(4)
    reg = GeneratorRegistry()
    for name, d in [("a", 1), ("b", 2), ("c", 3)]:
        reg.declare(name, d)
    texts = [
        "1/1 * T(a,b)",
        "-1/2 * S(T(a),T(b,c)) + 3/1 * S(T(c))",
        "2/3 * P(T(a,b); S(T(c))) + -1/1 * P(T(c); S())",
        "0",
    ]
    for text in texts:
        elem = parse_element(text, reg)
        assert element_to_text(normalize(elem, SHIFT2)) == element_to_text(normalize(
            parse_element(element_to_text(elem), reg), SHIFT2))


def test_serialization_is_canonical_and_reproducible(reg):
    a, b = gens(reg, [("a", 2), ("b", 2)])
    e1 = Element()
    e1.add_term(Tensor((b,)), 1)
    e1.add_term(Tensor((a,)), 1)
    e2 = Element()
    e2.add_term(Tensor((a,)), 1)
    e2.add_term(Tensor((b,)), 1)
    assert element_to_text(e1) == element_to_text(e2) == "1/1 * T(a) + 1/1 * T(b)"


def test_parse_errors_carry_position(reg):
    gens(reg, [("a", 2)])
    with pytest.raises(ParseError) as err:
        parse_element("1/1 * T(a", reg)
    assert err.value.position >= 0
    with pytest.raises(ParseError):
        parse_element("1/1 * T(zz)", reg)
    with pytest.raises(ParseError):
        parse_element("1/0 * T(a)", reg)
    with pytest.raises(ParseError):
        parse_element("1/1 * T(a) trailing", reg)


def test_term_cap_enforced(reg):
    a, b = gens(reg, [("a", 2), ("b", 2)])
    old = get_term_cap()
    set_term_cap(3)
    try:
        e = Element()
        with pytest.raises(TermBudgetExceeded):
            for i in range(10):
                e.add_term(Tensor(tuple([a] * (i + 1))), 1)
    finally:
        set_term_cap(old)


def test_leg_maps_reject_keys_without_the_leg(reg):
    a, b = gens(reg, [("a", 2), ("b", 3)])
    ta, tb = Tensor((a,)), Tensor((b,))
    keep = Element.single
    split = lambda w: Element.single((w, w))
    leg_ops = [
        lambda e, leg: e.volte(leg, SHIFT1),
        lambda e, leg: e.map_leg(leg, keep, 0, SHIFT1),
        lambda e, leg: e.cosplit_leg(leg, split, 0, SHIFT1),
    ]
    one_leg = Element.single((ta,))
    word_key = Element.single(Tensor((a, b)))
    for op in leg_ops:
        with pytest.raises(SchemaError):
            op(one_leg, 1)
        with pytest.raises(SchemaError):
            op(word_key, 0)
    # deg(T(a)) = 1 and deg(T(b)) = 2, so the swap carries no sign
    two_legs = Element.single((ta, tb), 3)
    assert two_legs.volte(0, SHIFT1) == Element.single((tb, ta), 3)
    assert two_legs.map_leg(1, keep, 1, SHIFT1) == -two_legs
    assert two_legs.cosplit_leg(0, split, 0, SHIFT1) == Element.single((ta, ta, tb), 3)


def test_element_text_for_each_key_kind(reg):
    a, b = gens(reg, [("a", 2), ("b", 3)])
    ta, tb = Tensor((a,)), Tensor((b,))
    words = Element({tb: 1, ta: -2})
    assert element_to_text(words) == "-2/1 * T(a) + 1/1 * T(b)"
    legs = Element({(tb, ta): Fraction(-1, 2), (ta, tb): 1})
    assert element_to_text(legs) == "1/1 * T(a) # T(b) + -1/2 * T(b) # T(a)"
    atoms = Element({b.gen: 2, a.gen: Fraction(1, 3)})
    assert element_to_text(atoms) == "1/3 * a + 2/1 * b"
    assert element_to_text(Element()) == "0"


def test_sums_refuse_keys_of_different_kinds(reg):
    a, b = gens(reg, [("a", 2), ("b", 3)])
    ta, tb = Tensor((a,)), Tensor((b,))
    word = Element.single(ta)
    pair = Element.single((ta, tb))
    triple = Element.single((ta, tb, ta))
    atom = Element.single(a.gen)
    for x, y in [(word, pair), (pair, triple), (word, atom), (atom, pair)]:
        with pytest.raises(SchemaError):
            x + y
        with pytest.raises(SchemaError):
            y - x
    # zero takes any kind, and keys of one kind add as before
    assert word + Element() == word and Element() - pair == -pair
    assert pair + Element.single((tb, ta)) == Element({(ta, tb): 1, (tb, ta): 1})
    assert (word - Element.single(Tensor((a, b)))).words() == [ta, Tensor((a, b))]


def test_constructor_drops_zeros_and_refuses_mixed_kinds(reg):
    a, b = gens(reg, [("a", 2), ("b", 3)])
    ta, tb = Tensor((a,)), Tensor((b,))
    with pytest.raises(SchemaError):
        Element({ta: 1, (ta, tb): 1, tb: 0})
    elem = Element({ta: 1, tb: 0, Tensor((a, b)): Fraction(0)})
    assert elem.words() == [ta] and element_to_text(elem) == "1/1 * T(a)"
    assert Element({(ta, tb): 0}).is_zero() and Element({}).is_zero()
    # + and - copy their left operand and leave it untouched
    left = Element({ta: 1})
    assert (left + Element.single(tb)).words() == [ta, tb] and left.words() == [ta]
    assert (left - Element.single(ta)).is_zero() and left.words() == [ta]
