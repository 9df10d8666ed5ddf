"""law_defect's one table of images per law evaluation and its one signed sum.

law_defect computes every coproduct image, embedding and sym_insert once per
distinct argument within one evaluation and adds both sides of the law into
one element.  These tests compare it with the textbook composition of the
public coproducts on inputs whose defect is not zero, pin how often each
image is computed, and check that nothing of one evaluation reaches the next.
"""

import collections
import gc
import random

import pytest

import pregerst.cooperations as co
from pregerst.cooperations import (
    LawId,
    cocrochet_lie,
    delta_cocom,
    delta_leibniz,
    delta_perm,
    kappa,
    kappa_prime,
    law_defect,
)
from pregerst.errors import TermBudgetExceeded
from pregerst.grading import SHIFT1, SHIFT2, Generator
from pregerst.mutations import mutant
from pregerst.words import (
    _GENS,
    _PAIRS,
    _SYMS,
    _TENSORS,
    Element,
    Gen,
    Pair,
    Tensor,
    get_term_cap,
    set_term_cap,
    sym_word,
)

PAIR_LAWS = (LawId.PERM_COALG, LawId.KAPPA_COJACOBI,
             LawId.COMPAT_1, LawId.COMPAT_2, LawId.COMPAT_3)


def textbook(law, elem, view):
    """The law's two sides built from the public coproducts with
    cosplit_leg, volte and subtraction, each side an element of its own."""
    def on_words(cop):
        return lambda w: cop(Element.single(w), view)
    if law in (LawId.COCOMM, LawId.KAPPA_COSYM):
        d = (delta_cocom if law is LawId.COCOMM else kappa_prime)(elem, view)
        return d.volte(0, view) - d
    if law is LawId.COASSOC:
        d, c = delta_cocom(elem, view), on_words(delta_cocom)
        return d.cosplit_leg(0, c, 0, view) - d.cosplit_leg(1, c, 0, view)
    if law is LawId.LEIBNIZ_COALG:
        d, c = delta_leibniz(elem, view), on_words(delta_leibniz)
        lhs, rhs = d.cosplit_leg(1, c, 0, view), d.cosplit_leg(0, c, 0, view)
        return lhs - rhs + rhs.volte(1, view)
    if law is LawId.COJACOBI_DELTA:
        b = cocrochet_lie(elem, view).cosplit_leg(0, on_words(cocrochet_lie), 0, view)
        return b + b.volte(1, view).volte(0, view) + b.volte(0, view).volte(1, view)
    k, d = kappa(elem, view), delta_perm(elem, view)
    kc, dc = on_words(kappa), on_words(delta_perm)
    if law is LawId.PERM_COALG:
        a = d.cosplit_leg(1, dc, 0, view)
        return a - a.volte(1, view)
    if law is LawId.KAPPA_COJACOBI:
        rhs = k.cosplit_leg(0, kc, 1, view)
        return -k.cosplit_leg(1, kc, 1, view) - rhs - rhs.volte(1, view)
    if law is LawId.COMPAT_1:
        a = d.cosplit_leg(1, kc, 1, view)
        return a - a.volte(1, view)
    if law is LawId.COMPAT_2:
        b = d.cosplit_leg(0, kc, 1, view)
        return k.cosplit_leg(1, dc, 0, view) - b - b.volte(1, view)
    assert law is LawId.COMPAT_3
    return (k.cosplit_leg(0, dc, 0, view) - d.cosplit_leg(1, kc, 1, view)
            - d.cosplit_leg(0, kc, 1, view).volte(1, view))


def gens(degrees):
    return [Gen(Generator("g%d" % i, d)) for i, d in enumerate(degrees)]


def rand_degrees(rng, n):
    return [rng.randint(1, 4) for _ in range(n)]


def rand_pair(rng):
    lengths = [rng.randint(1, 3)] + [rng.randint(1, 2) for _ in range(rng.randint(0, 3))]
    atoms = iter(gens(rand_degrees(rng, sum(lengths))))
    parts = [Tensor([next(atoms) for _ in range(n)]) for n in lengths]
    sign, tail = sym_word(parts[1:], SHIFT2)
    return Element.single(Pair(parts[0], tail), sign)


def rand_tensor(rng):
    return Element.single(Tensor(gens(rand_degrees(rng, rng.randint(2, 4)))))


def rand_sym(rng):
    sign, word = sym_word(gens(rand_degrees(rng, rng.randint(2, 4))), SHIFT1)
    return Element.single(word, sign)


def rand_sym_of_tensors(rng):
    lengths = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
    atoms = iter(gens(rand_degrees(rng, sum(lengths))))
    sign, word = sym_word([Tensor([next(atoms) for _ in range(n)]) for n in lengths], SHIFT2)
    return Element.single(word, sign)


def first_cut_only(elem):
    """A deconcatenation that keeps only its first cut: not coassociative."""
    out = Element()
    for word, c in elem.items():
        if len(word.factors) > 1:
            out.add_term((Tensor(word.factors[:1]), Tensor(word.factors[1:])), c)
    return out


def singleton_left_splits(table):
    """A split table that keeps only the splits with one factor on the left."""
    def splits(parities, nonempty_first=False, nonempty_second=False):
        return tuple(s for s in table(parities, nonempty_first, nonempty_second)
                     if len(s[0]) == 1)
    return splits


def uv_sign_for_both_orders(table):
    """kappa_prime's factor-cut table with the sign of (X_I, U, V, X_J) used
    for the order (X_I, V, U, X_J) too: not cosymmetric."""
    def cuts(parities, s):
        return tuple((left, right, sign_uv, sign_uv)
                     for left, right, sign_uv, _ in table(parities, s))
    return cuts


def compare(law, draw, seed, count):
    """Differential check on count seeded draws; the number of nonzero defects."""
    rng = random.Random(seed)
    nonzero = 0
    for _ in range(count):
        elem = draw(rng)
        view = co._LAWS[law][0]
        fused = law_defect(law, elem)
        assert fused == textbook(law, elem, view), (law, elem)
        nonzero += not fused.is_zero()
    return nonzero


# (fault, law, draw, least number of nonzero defects in 24 draws); a fault
# is a curated mutant or a module attribute replaced for the test.  Each
# least is the count these seeded draws give.
FAULTS = [
    ("mu2_identity", LawId.LEIBNIZ_COALG, rand_tensor, 13),
    ("embed_unsigned", LawId.PERM_COALG, rand_pair, 5),
    ("embed_unsigned", LawId.KAPPA_COJACOBI, rand_pair, 9),
    ("embed_unsigned", LawId.COMPAT_1, rand_pair, 5),
    ("embed_unsigned", LawId.COMPAT_2, rand_pair, 8),
    ("embed_unsigned", LawId.COMPAT_3, rand_pair, 5),
    ("kappa_head_sign_drop", LawId.KAPPA_COJACOBI, rand_pair, 9),
    ("kappa_head_sign_drop", LawId.COMPAT_1, rand_pair, 5),
    ("kappa_head_sign_drop", LawId.COMPAT_3, rand_pair, 8),
    ("kappa_prime_prefix_drop", LawId.KAPPA_COJACOBI, rand_pair, 6),
    ("kappa_prime_prefix_drop", LawId.COMPAT_1, rand_pair, 2),
    ("kappa_prime_prefix_drop", LawId.COMPAT_2, rand_pair, 4),
    ("kappa_prime_prefix_drop", LawId.COMPAT_3, rand_pair, 4),
    (("delta_concat", lambda original: first_cut_only), LawId.COJACOBI_DELTA, rand_tensor, 13),
    (("_split_table", singleton_left_splits), LawId.COASSOC, rand_sym, 13),
    (("_split_table", singleton_left_splits), LawId.COCOMM, rand_sym, 13),
    (("_factor_cut_table", uv_sign_for_both_orders), LawId.KAPPA_COSYM, rand_sym_of_tensors, 9),
]


@pytest.mark.parametrize("fault, law, draw, least", FAULTS,
                         ids=["%s-%s" % (f if isinstance(f, str) else f[0], law.value)
                              for f, law, _, _ in FAULTS])
def test_fused_defect_equals_the_textbook_composition_on_failing_laws(
        monkeypatch, fault, law, draw, least):
    if isinstance(fault, str):
        with mutant(fault):
            nonzero = compare(law, draw, 20, 24)
    else:
        name, make = fault
        monkeypatch.setattr(co, name, make(getattr(co, name)))
        nonzero = compare(law, draw, 20, 24)
    assert nonzero >= least, (fault, law, nonzero)


@pytest.mark.parametrize("law, draw", [
    (LawId.COASSOC, rand_sym), (LawId.COCOMM, rand_sym), (LawId.LEIBNIZ_COALG, rand_tensor),
    (LawId.COJACOBI_DELTA, rand_tensor), (LawId.KAPPA_COSYM, rand_sym_of_tensors)]
    + [(law, rand_pair) for law in PAIR_LAWS])
def test_fused_defect_equals_the_textbook_composition_where_laws_hold(law, draw):
    assert compare(law, draw, 21, 8) == 0


def head4_three_tails():
    """P(T(g0,g1,g2,g3); S(T(g4), T(g5,g6), T(g7))), degrees 1..4 in turn."""
    g = gens([1, 2, 3, 4, 1, 2, 3, 4])
    sign, tail = sym_word([Tensor(g[4:5]), Tensor(g[5:7]), Tensor(g[7:8])], SHIFT2)
    return Element.single(Pair(Tensor(g[:4]), tail), sign)


def test_each_image_is_computed_once_per_distinct_argument(monkeypatch):
    calls = collections.Counter()
    wrapped = {}    # original -> its counting wrapper

    def counted(name):
        original = getattr(co, name)

        def run(*args):
            # a body's first argument is the table, which is not part of its key
            calls[(name,) + (args[1:] if name.startswith("_") else args)] += 1
            return original(*args)
        monkeypatch.setattr(co, name, run)
        wrapped[original] = run

    names = ("embed_sym_into_pair", "sym_insert", "_kappa_word", "_kappa_prime_sym_word")
    for name in names:
        counted(name)
    # the law table holds its bodies itself, so its rows get the wrappers too
    monkeypatch.setattr(co, "_LAWS", {
        law: (view, space, tuple((wrapped.get(first, first), leg, wrapped.get(body, body),
                                  cop_degree, outs)
                                 for first, leg, body, cop_degree, outs in sides))
        for law, (view, space, sides) in co._LAWS.items()})
    defect = law_defect(LawId.KAPPA_COJACOBI, head4_three_tails())
    assert defect.is_zero()
    assert max(calls.values()) == 1
    # the distinct arguments; with an image table per coproduct call the
    # same evaluation made 1820, 2512, 193 and 179 calls
    per_name = collections.Counter(key[0] for key in calls)
    assert per_name == {"embed_sym_into_pair": 128, "sym_insert": 269,
                        "_kappa_word": 145, "_kappa_prime_sym_word": 57}


def test_no_state_outlives_a_law():
    g = gens([1, 2, 3, 4])
    sign, tail = sym_word([Tensor(g[2:3]), Tensor(g[3:4])], SHIFT2)
    e = Element.single(Pair(Tensor(g[:2]), tail), sign)     # P(T(g0,g1); S(T(g2),T(g3)))
    with mutant("embed_unsigned"):
        fresh = law_defect(LawId.COMPAT_2, e)
        # (a) an evaluation that the term cap aborts leaves nothing behind
        cap = get_term_cap()
        set_term_cap(5)
        try:
            with pytest.raises(TermBudgetExceeded):
                law_defect(LawId.COMPAT_2, e)
        finally:
            set_term_cap(cap)
        assert law_defect(LawId.COMPAT_2, e) == fresh
        # (b) nonzero inside the mutant ...
        assert not fresh.is_zero()
    # ... and zero right after it
    assert law_defect(LawId.COMPAT_2, e).is_zero()
    # (c) with the input kept and the result dropped, no word that the
    # evaluation made stays interned
    e = head4_three_tails()
    gc.collect()
    before = [len(t) for t in (_PAIRS, _SYMS, _TENSORS, _GENS)]
    law_defect(LawId.KAPPA_COJACOBI, e)
    gc.collect()
    assert [len(t) for t in (_PAIRS, _SYMS, _TENSORS, _GENS)] == before
