"""Hash-consed words: one live word per set of children, cached degrees, weak
intern tables, and the tuple-keyed mu and shuffle kernels."""

import contextlib
import gc
import random
from fractions import Fraction

import pytest

from pregerst import words
from pregerst.errors import TermBudgetExceeded
from pregerst.grading import BASE, SHIFT1, SHIFT2, GeneratorRegistry
from pregerst.suites import SUITE_SPECS, SuiteConfig, run_suite
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    degree,
    get_term_cap,
    mu,
    set_term_cap,
    shuffle_product,
)

VIEWS = (BASE, SHIFT1, SHIFT2)


def table_sizes():
    return tuple(len(t) for t in (words._GENS, words._TENSORS, words._SYMS, words._PAIRS))


@contextlib.contextmanager
def no_collection():
    """Collect garbage left by earlier tests, then keep the collector from
    freeing words while the table sizes are compared."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def test_equal_children_give_the_same_word():
    reg = GeneratorRegistry()
    a = Gen(reg.declare("a", 2))
    b = Gen(reg.declare("b", 3))
    assert Gen(reg.get("a")) is a
    assert Tensor((a, b)) is Tensor([a, b])
    assert Tensor((a, b)) is not Tensor((b, a))
    assert Sym((Tensor((a,)), b)) is Sym([Tensor((a,)), b])
    assert Sym(()) is words.EMPTY_SYM
    assert Pair(Tensor((a, b)), Sym((b,))) is Pair(Tensor((a, b)), Sym((b,)))
    # a generator from another registry with the same name and degree
    assert Gen(GeneratorRegistry().declare("a", 2)) is a
    assert len({Tensor((a, b)), Tensor((a, b)), Tensor((b, a))}) == 2


def test_same_name_at_another_degree_is_another_gen():
    a2 = Gen(GeneratorRegistry().declare("a", 2))
    a3 = Gen(GeneratorRegistry().declare("a", 3))
    assert a2 is not a3
    assert degree(a2, BASE) == 2 and degree(a3, BASE) == 3
    assert Tensor((a2,)) is not Tensor((a3,))


def reference_degree(word, view):
    """The recursive definition: a tensor word adds its legs' deg, one less
    for deg'; sym and pair words sum their children in the view."""
    if type(word) is Gen:
        return word.gen.degree - view.value
    if type(word) is Tensor:
        if view is BASE:
            return sum(reference_degree(f, BASE) for f in word.factors)
        total = sum(reference_degree(f, SHIFT1) for f in word.factors)
        return total - 1 if view is SHIFT2 else total
    if type(word) is Sym:
        return sum(reference_degree(f, view) for f in word.factors)
    return reference_degree(word.head, view) + reference_degree(word.tail, view)


def random_word(rng, gens, depth):
    kind = rng.choice(("gen", "tensor", "sym", "pair") if depth else ("gen",))
    if kind == "gen":
        return rng.choice(gens)
    if kind == "tensor":
        return Tensor(random_word(rng, gens, depth - 1) for _ in range(rng.randint(1, 3)))
    if kind == "sym":
        return Sym(random_word(rng, gens, depth - 1) for _ in range(rng.randint(0, 3)))
    head = rng.choice((rng.choice(gens), Tensor(rng.sample(gens, rng.randint(1, 3)))))
    return Pair(head, Sym(random_word(rng, gens, depth - 1) for _ in range(rng.randint(0, 2))))


def test_cached_degrees_match_the_recursive_definition():
    rng = random.Random(20061)
    reg = GeneratorRegistry()
    gens = [Gen(reg.declare("g%d" % i, d)) for i, d in enumerate((0, 1, 2, 3, 4, 5))]
    for _ in range(300):
        word = random_word(rng, gens, 3)
        for view in VIEWS:
            assert degree(word, view) == reference_degree(word, view), (word, view)


def test_dead_words_leave_the_tables():
    with no_collection():
        before = table_sizes()
        reg = GeneratorRegistry()
        x, y = Gen(reg.declare("x_dead", 1)), Gen(reg.declare("y_dead", 2))
        pair = Pair(Tensor((x, y)), Sym((Tensor((y,)),)))
        assert table_sizes() == (before[0] + 2, before[1] + 2, before[2] + 1, before[3] + 1)
        del x, y, pair
        assert table_sizes() == before


def test_intern_tables_shrink_back_after_a_run():
    before = table_sizes()
    for suite in ("mu-shuffle-lemma", "kappa-cojacobi", "q-square"):
        run_suite(SuiteConfig(suite, samples=5, max_tensor_len=3))
    gc.collect()
    after = table_sizes()
    assert all(n <= m for n, m in zip(after, before)), (before, after)


def cap_sums():
    """(n, sum, peak live terms while mu adds it, terms of the result): a
    shuffle sum that mu cancels, and rearrangements of abcd with a word from
    another multiset and one with a repeated factor, some terms cancelling."""
    reg = GeneratorRegistry()
    a, b, c, d, e = (Gen(reg.declare(n, deg)) for n, deg in zip("abcde", (1, 2, 2, 3, 1)))
    cancelling = shuffle_product(Tensor((a, b)), Tensor((c, d, e)), SHIFT1).scaled(Fraction(-2, 3))
    surviving = Element({Tensor((a, b, c, d)): 1, Tensor((c, a, d, b)): -2,
                         Tensor((a, b, c, e)): Fraction(1, 2), Tensor((d, b, a, c)): 3,
                         Tensor((a, a, b, c)): -1, Tensor((b, a, d, c)): 1,
                         Tensor((b, a, c, d)): 1})
    return [(5, cancelling, 32, 0), (4, surviving, 36, 34)]


def test_mu_and_shuffle_stop_at_the_term_cap():
    reg = GeneratorRegistry()
    a, b, c, d = (Gen(reg.declare(n, 2)) for n in "abcd")
    word = Tensor((a, b, c, d))
    sums = cap_sums()
    old = get_term_cap()
    try:
        set_term_cap(8)
        assert len(mu(4, word, SHIFT1)) == 8
        assert len(shuffle_product(Tensor((a, b)), Tensor((c, d)), SHIFT1)) == 6
        set_term_cap(7)
        with pytest.raises(TermBudgetExceeded):
            mu(4, word, SHIFT1)
        set_term_cap(5)
        with pytest.raises(TermBudgetExceeded):
            shuffle_product(Tensor((a, b)), Tensor((c, d)), SHIFT1)
        # on a sum the cap counts every live term, as Element.add_term would:
        # a cap below the peak aborts when the term one past it appears
        for n, elem, peak, size in sums:
            for cap in range(1, peak):
                set_term_cap(cap)
                with pytest.raises(TermBudgetExceeded) as info:
                    mu(n, elem, SHIFT1)
                assert (info.value.count, info.value.cap) == (cap + 1, cap)
            set_term_cap(peak)
            assert len(mu(n, elem, SHIFT1)) == size
    finally:
        set_term_cap(old)


def test_mu_shuffle_lemma_builds_no_tensor_word(monkeypatch):
    """One mu-shuffle-lemma instance at p = q = 3, its input words held by
    the instance: mu reads the shuffle's factor tuples, so neither a
    shuffled term nor a term of mu becomes a Tensor word."""
    config = SuiteConfig("mu-shuffle-lemma").resolved()
    instance = next(i for i in SUITE_SPECS[config.suite].builder(config)
                    if i.input_text == "p=3 q=3 degs=[0, 1, 2, 1, 0, 2]")
    kept = []
    keep = words._keep_tensor
    monkeypatch.setattr(words, "_keep_tensor", lambda word, key: kept.append(key) or keep(word, key))
    with no_collection():
        before = len(words._TENSORS)
        assert instance.thunk() == Element()
        assert len(words._TENSORS) == before
    assert kept == []


def test_mu_of_shuffles_builds_no_output_word():
    reg = GeneratorRegistry()
    atoms = [Gen(reg.declare("m%d" % i, d)) for i, d in enumerate((1, 2, 2, 3, 1))]
    sh = shuffle_product(Tensor(atoms[:2]), Tensor(atoms[2:]), SHIFT1)
    with no_collection():
        before = len(words._TENSORS)
        assert mu(5, sh, SHIFT1) == Element()
        assert len(words._TENSORS) == before
