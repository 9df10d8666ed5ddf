"""Coproducts and coalgebra laws, checked by exact expansion."""

import itertools
import random

import pytest

from pregerst.cooperations import (
    LawId,
    check_law,
    cocrochet_lie,
    delta_cocom,
    delta_leibniz,
    delta_perm,
    kappa,
    kappa_prime,
    kappa_prime_sym,
)
from pregerst.errors import SchemaError
from pregerst.grading import SHIFT1, SHIFT2, GeneratorRegistry, shuffles_k1m
from pregerst.mutations import single
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    degree,
    element_to_text,
    embed_element,
    embed_sym_into_pair,
    sym_word,
)


def make_gens(spec):
    reg = GeneratorRegistry()
    return [Gen(reg.declare(name, d)) for name, d in spec]


def pair_word(head_atoms, tail_lists):
    head = Tensor(tuple(head_atoms))
    tails = [Tensor(tuple(t)) for t in tail_lists]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


def rand_pair(rng, max_head=3, max_tails=2, max_tlen=2):
    reg = GeneratorRegistry()
    k = [0]

    def atom():
        k[0] += 1
        return Gen(reg.declare("g%d" % k[0], rng.randint(1, 4)))

    head = Tensor(tuple(atom() for _ in range(rng.randint(1, max_head))))
    tails = [Tensor(tuple(atom() for _ in range(rng.randint(1, max_tlen))))
             for _ in range(rng.randint(0, max_tails))]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


# ---------------------------------------------------------------------------
# frozen coproduct values
# ---------------------------------------------------------------------------

def test_delta_leibniz_values():
    a, b, c = make_gens([("a", 2), ("b", 2), ("c", 2)])  # deg 1 each
    assert delta_leibniz(Element.single(Tensor((a,)))).is_zero()
    out = delta_leibniz(Element.single(Tensor((a, b))))
    assert element_to_text(out) == "1/1 * T(a) # T(b)"
    # three letters, all deg 1: mu_2(b,c) = bc + cb
    out = delta_leibniz(Element.single(Tensor((a, b, c))))
    assert element_to_text(out) == (
        "1/1 * T(a) # T(b,c) + 1/1 * T(a) # T(c,b) + 1/1 * T(a,b) # T(c)")


def test_delta_cocom_values():
    x, y = make_gens([("x", 2), ("y", 3)])
    sx = Element.single(Sym((Tensor((x,)),)))
    assert delta_cocom(sx, SHIFT2).is_zero()
    sign, w = sym_word([Tensor((x,)), Tensor((y,))], SHIFT2)
    out = delta_cocom(Element.single(w, sign), SHIFT2)
    # deg' 0 and 1: both splits with plus signs
    assert element_to_text(out) == "1/1 * S(T(x)) # S(T(y)) + 1/1 * S(T(y)) # S(T(x))"


def test_delta_perm_values():
    a, b, c = make_gens([("a", 2), ("b", 2), ("c", 2)])
    assert delta_perm(pair_word((a,), ())).is_zero()
    out = delta_perm(pair_word((a,), ((b,),)))
    assert element_to_text(out) == "1/1 * P(T(a); S()) # P(T(b); S())"
    out = delta_perm(pair_word((a,), ((b,), (c,))))
    assert len(out) == 4


def test_delta_perm_matches_block_enumeration():
    # independent oracle: the permutative coproduct via the increasing-block
    # permutation set, head fixed, one factor picked as second-leg head
    rng = random.Random(2)
    for trial in range(40):
        reg = GeneratorRegistry()
        n = rng.randint(1, 3)
        atoms = [Gen(reg.declare("t%d" % i, rng.randint(1, 4))) for i in range(n)]
        head = Gen(reg.declare("h", rng.randint(1, 4)))
        facs = [Tensor((a,)) for a in atoms]
        sign, tail = sym_word(facs, SHIFT2)
        if tail is None:
            continue
        elem = Element.single(Pair(Tensor((head,)), tail), sign)
        expected = Element()
        degs = [degree(f, SHIFT2) for f in tail.factors]
        sorted_facs = tail.factors
        for k in range(0, n):
            m = n - k - 1
            for perm in shuffles_k1m(k, m):
                imgs = perm.images
                order = [imgs[i] - 1 for i in range(n)]
                from pregerst.grading import rearrangement_sign
                sgn = rearrangement_sign(degs, order)
                leg1_tail = [sorted_facs[order[i]] for i in range(k)]
                mid = sorted_facs[order[k]]
                leg2_tail = [sorted_facs[order[i]] for i in range(k + 1, n)]
                s1, t1 = sym_word(leg1_tail, SHIFT2)
                s2, t2 = sym_word(leg2_tail, SHIFT2)
                if t1 is None or t2 is None:
                    continue
                expected.add_term(
                    (Pair(Tensor((head,)), t1), Pair(mid, t2)), sign * sgn * s1 * s2)
        assert delta_perm(elem) == expected


def test_kappa_prime_values():
    # single factor of length 2; |a| = 2 so deg'(T(a)) = 0
    a, b = make_gens([("a", 2), ("b", 3)])
    sign, w = sym_word([Tensor((a, b))], SHIFT2)
    out = kappa_prime(Element.single(w, sign))
    assert element_to_text(out) == (
        "1/1 * P(T(a); S()) # P(T(b); S()) + 1/1 * P(T(b); S()) # P(T(a); S())")
    # single factors of length 1 contribute nothing
    sign, w = sym_word([Tensor((a,)), Tensor((b,))], SHIFT2)
    assert kappa_prime(Element.single(w, sign)).is_zero()


def test_kappa_values():
    a, c = make_gens([("a", 2), ("c", 2)])
    out = kappa(pair_word((a, c), ()))
    assert element_to_text(out) == (
        "1/1 * P(T(a); S()) # P(T(c); S()) + 1/1 * P(T(c); S()) # P(T(a); S())")
    f, b = make_gens([("f", 3), ("b", 3)])
    out = kappa(pair_word((f, b), ()))
    assert element_to_text(out) == (
        "1/1 * P(T(b); S()) # P(T(f); S()) + -1/1 * P(T(f); S()) # P(T(b); S())")
    assert kappa(pair_word((a,), ())).is_zero()


def test_kappa_degree_shift_homogeneity():
    # every output term's legs lose exactly one deg' relative to the input
    rng = random.Random(8)
    for trial in range(40):
        e = rand_pair(rng)
        if e is None:
            continue
        word = next(iter(e.terms))
        k = degree(word, SHIFT2)
        for legs in kappa(e).terms:
            assert sum(degree(w, SHIFT2) for w in legs) == k - 1
        for legs in delta_perm(e).terms:
            assert sum(degree(w, SHIFT2) for w in legs) == k


def test_coproducts_are_linear():
    rng = random.Random(13)
    for cop in (lambda e: delta_leibniz(e),
                lambda e: delta_perm(e),
                lambda e: kappa(e)):
        for trial in range(10):
            if cop is delta_leibniz:
                pass
            e1 = rand_pair(rng, 2, 1, 2)
            e2 = rand_pair(rng, 2, 1, 2)
            if e1 is None or e2 is None:
                continue
            if cop in (delta_perm, kappa):
                lhs = cop(e1.scaled(3) + e2.scaled(-2))
                rhs = cop(e1).scaled(3) + cop(e2).scaled(-2)
                assert lhs == rhs
    # tensor-word coproduct linearity
    reg = GeneratorRegistry()
    a, b, c = (Gen(reg.declare(n, 2)) for n in "abc")
    e1 = Element.single(Tensor((a, b)))
    e2 = Element.single(Tensor((b, c)))
    assert delta_leibniz(e1.scaled(5) + e2) == \
        delta_leibniz(e1).scaled(5) + delta_leibniz(e2)


# ---------------------------------------------------------------------------
# laws
# ---------------------------------------------------------------------------

def test_leibniz_law_exhaustive_small():
    for n in range(1, 5):
        for pattern in itertools.product((1, 2, 3), repeat=n):
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
            chk = check_law(LawId.LEIBNIZ_COALG, Element.single(Tensor(tuple(atoms))))
            assert chk.ok, chk.defect_text


def test_leibniz_law_fails_under_mu2_mutation():
    reg = GeneratorRegistry()
    atoms = [Gen(reg.declare("x%d" % i, 2)) for i in range(3)]
    chk = check_law(LawId.LEIBNIZ_COALG, Element.single(Tensor(tuple(atoms))),
                    mutations=single("mu2_identity"))
    assert not chk.ok


def test_cojacobi_for_the_lie_cocrochet():
    for n in range(1, 5):
        for pattern in itertools.product((1, 2), repeat=n):
            reg = GeneratorRegistry()
            atoms = [Gen(reg.declare("x%d" % i, d + 1)) for i, d in enumerate(pattern)]
            chk = check_law(LawId.COJACOBI_DELTA, Element.single(Tensor(tuple(atoms))))
            assert chk.ok, chk.defect_text
    # and the cocrochet is coantisymmetric
    reg = GeneratorRegistry()
    atoms = [Gen(reg.declare(n, 2)) for n in "ab"]
    d = cocrochet_lie(Element.single(Tensor(tuple(atoms))), SHIFT1)
    assert d.volte(0, SHIFT1) == -d


def test_cocommutative_laws():
    rng = random.Random(3)
    for trial in range(40):
        reg = GeneratorRegistry()
        n = rng.randint(1, 4)
        atoms = [Gen(reg.declare("g%d" % i, rng.randint(1, 4))) for i in range(n)]
        sign, w = sym_word(atoms, SHIFT1)
        if w is None:
            continue
        e = Element.single(w, sign)
        assert check_law(LawId.COASSOC, e, SHIFT1).ok
        assert check_law(LawId.COCOMM, e, SHIFT1).ok


def test_pair_word_laws_random():
    rng = random.Random(7)
    checked = 0
    for trial in range(60):
        e = rand_pair(rng)
        if e is None:
            continue
        checked += 1
        for law in (LawId.PERM_COALG, LawId.KAPPA_COJACOBI,
                    LawId.COMPAT_1, LawId.COMPAT_2, LawId.COMPAT_3):
            chk = check_law(law, e)
            assert chk.ok, "%s failed on %s: %s" % (law, chk.input_text, chk.defect_text)
    assert checked >= 40


def test_kappa_cosym_random():
    rng = random.Random(15)
    for trial in range(40):
        reg = GeneratorRegistry()
        k = [0]

        def atom():
            k[0] += 1
            return Gen(reg.declare("h%d" % k[0], rng.randint(1, 4)))

        facs = [Tensor(tuple(atom() for _ in range(rng.randint(1, 3))))
                for _ in range(rng.randint(1, 2))]
        sign, w = sym_word(facs, SHIFT2)
        if w is None:
            continue
        chk = check_law(LawId.KAPPA_COSYM, Element.single(w, sign))
        assert chk.ok, chk.defect_text


def test_cojacobi_on_spec_example_instance():
    # head of three letters, base degrees (2,2,2)
    a, b, c = make_gens([("a", 2), ("b", 2), ("c", 2)])
    chk = check_law(LawId.KAPPA_COJACOBI, pair_word((a, b, c), ()))
    assert chk.ok, chk.defect_text


def test_display_variant_with_mu_legs_fails_cojacobi():
    # the as-printed reading, with the antisymmetrised mu on the cut-off leg,
    # does not satisfy the shifted coJacobi identity; the defect is the fully
    # symmetrised triple cut (see the decisions ledger for the analysis)
    a, b, c = make_gens([("a", 2), ("b", 2), ("c", 2)])
    e = pair_word((a, b, c), ())
    kap = lambda x: kappa(x, SHIFT2, mu_legs=True)
    kw = lambda w: kappa(Element.single(w), SHIFT2, mu_legs=True)
    k = kap(e)
    lhs = -k.cosplit_leg(1, kw, 1, SHIFT2)
    rhs = k.cosplit_leg(0, kw, 1, SHIFT2)
    defect = lhs - rhs - rhs.volte(1, SHIFT2)
    assert not defect.is_zero()
    assert len(defect) == 6  # one term per leg ordering of the triple cut


def test_laws_hold_on_zero_element():
    z = Element.zero()
    for law in (LawId.KAPPA_COJACOBI, LawId.PERM_COALG, LawId.COMPAT_2):
        assert check_law(law, z).ok


def test_law_space_validation():
    a, b = make_gens([("a", 2), ("b", 2)])
    with pytest.raises(SchemaError):
        check_law(LawId.LEIBNIZ_COALG, Element.single(Sym((Tensor((a,)),))))
    with pytest.raises(SchemaError):
        check_law(LawId.KAPPA_COJACOBI, Element.single(Tensor((a, b))))


# ---------------------------------------------------------------------------
# the embedding intertwines the coproducts
# ---------------------------------------------------------------------------

def embed_tpe(tpe):
    out = Element()
    for (la, lb), c in tpe.items():
        for wa, ca in embed_sym_into_pair(la, SHIFT2).items():
            for wb, cb in embed_sym_into_pair(lb, SHIFT2).items():
                out.add_term((wa, wb), c * ca * cb)
    return out


def sym_instances():
    reg = GeneratorRegistry()
    a, b, c, e, f = (Gen(reg.declare(n, d)) for n, d in
                     [("a", 2), ("b", 3), ("c", 2), ("e", 4), ("f", 3)])
    shapes = [
        [Tensor((a,)), Tensor((b,))],
        [Tensor((a, b)), Tensor((c,))],
        [Tensor((a, b)), Tensor((c, e))],
        [Tensor((a, b, f))],
        [Tensor((a,)), Tensor((b,)), Tensor((c, e))],
    ]
    for facs in shapes:
        sign, w = sym_word(facs, SHIFT2)
        if w is not None:
            yield Element.single(w, sign)


def test_delta_perm_intertwines_embedding():
    for e in sym_instances():
        lhs = delta_perm(embed_element(e, SHIFT2))
        rhs = embed_tpe(delta_cocom(e, SHIFT2))
        assert lhs == rhs


def test_kappa_intertwines_embedding():
    for e in sym_instances():
        lhs = kappa(embed_element(e, SHIFT2))
        rhs = embed_tpe(kappa_prime_sym(e))
        assert lhs == rhs


def test_kappa_restricted_to_pure_heads_is_symmetrised_cut():
    # on a bare head the cocrochet is the two-sided signed deconcatenation:
    # each proper cut contributes (-1)^{deg' U} (U # V) and the swap with the
    # Koszul sign of the two halves
    rng = random.Random(44)
    from pregerst.grading import rearrangement_sign
    for trial in range(30):
        reg = GeneratorRegistry()
        n = rng.randint(2, 4)
        atoms = [Gen(reg.declare("x%d" % i, rng.randint(1, 4))) for i in range(n)]
        head = Tensor(tuple(atoms))
        expected = Element()
        for cut in range(1, n):
            u = Tensor(tuple(atoms[:cut]))
            v = Tensor(tuple(atoms[cut:]))
            up, vp = degree(u, SHIFT2), degree(v, SHIFT2)
            base = -1 if up & 1 else 1
            expected.add_term((Pair(u, Sym(())), Pair(v, Sym(()))), base)
            swap = -1 if (up & 1 and vp & 1) else 1
            expected.add_term((Pair(v, Sym(())), Pair(u, Sym(()))), base * swap)
        assert kappa(Element.single(Pair(head, Sym(())))) == expected
