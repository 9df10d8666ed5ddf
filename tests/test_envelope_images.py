"""The one table of images kept on an EnvelopeContext (D and r2 on words, the
lift's slot images and the atom products): one computation per distinct
argument, read and never changed, keyed without the context or the model,
nothing kept from an aborted computation, one context per suite instance,
and emptied by mutant; and coderivation_defect's Context, with one image of
Q per distinct leg word and one embedding per distinct tail across both
coproducts."""

import functools
import gc
import random
import weakref
from collections import Counter

import pytest

from pregerst import cooperations, envelopes, words
from pregerst.cooperations import delta_perm, kappa
from pregerst.envelopes import (
    EnvelopeContext,
    coderivation_defect,
    l_infinity_q,
    m_map,
    prelie_envelope_q,
    q_total,
    r2,
    r2_derivation_defect,
    r2_prelie_defect,
    r_map,
    zinfinity_d,
)
from pregerst.errors import TermBudgetExceeded
from pregerst.grading import SHIFT2
from pregerst.models import AlgebraModel, FormsModel
from pregerst.mutations import mutant
from pregerst.suites import SUITE_SPECS, SuiteConfig, run_suite
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    get_term_cap,
    set_term_cap,
    sym_word,
)


def rand_word(model, rng, length):
    return Tensor(tuple(Gen(model.sample_atom(rng, max_poly_degree=1))
                        for _ in range(length)))


def rand_pair(model, rng):
    head = rand_word(model, rng, rng.randint(1, 3))
    tails = [rand_word(model, rng, rng.randint(1, 2)) for _ in range(rng.randint(0, 3))]
    sign, tail = sym_word(tails, SHIFT2)
    if tail is None:
        return None
    return Element.single(Pair(head, tail), sign)


def d_image(ctx, w):
    """D on one tensor word, ctx's stored image."""
    return words._image(ctx, envelopes._zinfinity_d_word, w)


def r2_image(ctx, x, y):
    """r2 on a pair of tensor words, ctx's stored image."""
    return words._image(ctx, envelopes._r2_words, x, y)


def counting(monkeypatch, name):
    """Replace the private envelopes.<name> by a wrapper that counts its
    calls per argument tuple, its first argument (a context) left out."""
    fn = getattr(envelopes, name)
    calls = Counter()

    def wrapper(first, *args):
        calls[args] += 1
        return fn(first, *args)
    monkeypatch.setattr(envelopes, name, wrapper)
    return calls


# the bodies stored in ctx.images: images of words and slot images, and the
# atom products
IMAGE_BODIES = ("_r2_words", "_zinfinity_d_word", "_r2_shifted", "_symmetrised",
                "_d_atom", "_diamond_shifted")
PRODUCT_BODIES = ("_diamond", "_bracket_atoms", "_q2_wedge")


def test_each_body_runs_once_per_distinct_argument_per_context(monkeypatch):
    image_calls = [counting(monkeypatch, name) for name in IMAGE_BODIES]
    product_calls = [counting(monkeypatch, name) for name in PRODUCT_BODIES]
    reads = counting(monkeypatch, "_image")     # words._image, as envelopes reads it
    model = FormsModel(2)
    rng = random.Random(4417)
    cop = lambda e: delta_perm(e, SHIFT2)
    contexts = computed = read = 0
    seen = Counter()
    while contexts < 8:
        elem = rand_pair(model, rng)
        if elem is None:
            continue
        contexts += 1
        ctx = EnvelopeContext(model)
        for calls in image_calls + product_calls + [reads]:
            calls.clear()
        assert coderivation_defect(ctx, q_total, cop, 0, elem).is_zero()
        assert q_total(ctx, q_total(ctx, elem)).is_zero()
        for calls in image_calls + product_calls:
            assert set(calls.values()) <= {1}
        assert sum(map(len, image_calls + product_calls)) == len(ctx.images)
        seen.update(name for name, calls in zip(IMAGE_BODIES + PRODUCT_BODIES,
                                                image_calls + product_calls) if calls)
        # the images of words and the slot images, the atom products left out
        slot_bodies = {getattr(envelopes, name) for name in IMAGE_BODIES}
        computed += sum(map(len, image_calls))
        read += sum(n for args, n in reads.items() if args[0] in slot_bodies)
    # Q reaches every body but those of the atom envelopes
    assert set(seen) == set(IMAGE_BODIES + PRODUCT_BODIES) - {"_d_atom", "_diamond_shifted"}
    # the images were read more often than they were computed
    assert read > 2 * computed > 0


def test_warm_context_results_equal_fresh_context_results():
    model = FormsModel(2)
    warm = EnvelopeContext(model)
    rng = random.Random(8090)
    checked = Counter()
    for _ in range(200):
        elem = rand_pair(model, rng)
        if elem is not None:
            once = q_total(warm, elem)
            assert once == q_total(EnvelopeContext(model), elem)
            assert q_total(warm, once) == q_total(EnvelopeContext(model), once)
            checked["q_total"] += 1
        x = Element.single(rand_word(model, rng, rng.randint(1, 3)))
        y = Element.single(rand_word(model, rng, rng.randint(1, 2)))
        assert r2(warm, x, y) == r2(EnvelopeContext(model), x, y)
        xy = r2(warm, x, y)
        assert zinfinity_d(warm, xy) == zinfinity_d(EnvelopeContext(model), xy)
        checked["r2"] += not xy.is_zero()
    assert checked["q_total"] >= 150 and checked["r2"] >= 100
    assert len(warm.images) > 200


def every_public_map_and_checker(ctx, model, rng):
    """The results of every public map and checker of envelopes on a few
    sampled inputs over ctx."""
    cops = [(lambda e: delta_perm(e, SHIFT2), 0), (kappa, 1)]
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    out = [prelie_envelope_q(ctx, Element.single(Pair(u1, Sym((u2,))))),
           l_infinity_q(ctx, Element.single(Sym((u1, u2))))]
    for _ in range(12):
        elem = rand_pair(model, rng)
        x, y, z = (Element.single(rand_word(model, rng, rng.randint(1, 3))) for _ in range(3))
        out += [zinfinity_d(ctx, x), r2(ctx, x, y), r2_prelie_defect(ctx, x, y, z),
                r2_derivation_defect(ctx, x, y)]
        if elem is None:
            continue
        for q in (m_map, r_map, q_total):
            out.append(q(ctx, elem))
            out += [coderivation_defect(ctx, q, cop, d, elem) for cop, d in cops]
    return out


def test_stored_images_are_read_never_changed():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    every_public_map_and_checker(ctx, model, random.Random(6021))
    table = ctx.images
    before = dict(table)
    terms = {key: dict(image.terms) for key, image in before.items()}
    products = {getattr(envelopes, name) for name in PRODUCT_BODIES}
    assert sum(key[0] in products for key in before) > 20
    assert sum(key[0] not in products for key in before) > 100
    # a caller that changes every result it gets changes nothing stored
    for result in every_public_map_and_checker(ctx, model, random.Random(6021)):
        result.terms.clear()
    assert table == before
    assert all(table[key] is image for key, image in before.items())
    assert {key: image.terms for key, image in table.items()} == terms
    # every key is (body,) + arguments, and none holds a context or a model
    assert {key[0] for key in table} == {
        getattr(envelopes, name) for name in IMAGE_BODIES + PRODUCT_BODIES}
    assert not any(isinstance(part, (EnvelopeContext, AlgebraModel))
                   for key in table for part in key)


def test_a_term_cap_abort_leaves_no_entry():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    x, y, w = Tensor((u1, u2)), Tensor((u2, u1)), Tensor((u1, u2, u1))
    previous = get_term_cap()
    set_term_cap(1)
    try:
        with pytest.raises(TermBudgetExceeded):
            r2_image(ctx, x, y)
        with pytest.raises(TermBudgetExceeded):
            d_image(ctx, w)
    finally:
        set_term_cap(previous)
    assert ctx.images == {}
    assert len(r2_image(ctx, x, y)) > 1 and len(d_image(ctx, w)) > 1
    words_images = (envelopes._r2_words, envelopes._zinfinity_d_word)
    assert {key for key in ctx.images if key[0] in words_images} == {
        (envelopes._r2_words, x, y), (envelopes._zinfinity_d_word, w)}


def test_an_aborted_image_pops_the_images_it_stored_first():
    model = FormsModel(2)
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    x, y = Tensor((u1, u2)), Tensor((u2, u1, u1))
    ctx = EnvelopeContext(model)
    d_image(ctx, y)

    def reads_then_aborts(ctx, x, y):
        # a slot body that reads and stores two images, then hits the cap
        r2_image(ctx, x, y)
        d_image(ctx, x)
        raise TermBudgetExceeded(2, 1)
    before = dict(ctx.images)
    with pytest.raises(TermBudgetExceeded):
        words._image(ctx, reads_then_aborts, x, y)
    assert list(ctx.images.items()) == list(before.items())
    # the same reads outside an aborted body are kept, with the atom
    # products they read
    r2_image(ctx, x, y)
    d_image(ctx, x)
    added = set(ctx.images) - set(before)
    assert {(envelopes._r2_words, x, y), (envelopes._zinfinity_d_word, x)} < added
    assert all(key[0] in (envelopes._r2_words, envelopes._zinfinity_d_word, envelopes._diamond,
                          envelopes._bracket_atoms, envelopes._q2_wedge) for key in added)


def test_coderivation_defect_applies_q_once_per_distinct_leg_word():
    model = FormsModel(2)
    rng = random.Random(2718)
    shared = 0          # inputs with a word on both legs of kappa
    for _ in range(30):
        elem = rand_pair(model, rng)
        if elem is None:
            continue
        calls = []

        def q(ctx, e):
            calls.append(e)
            return q_total(ctx, e)
        coderivation_defect(EnvelopeContext(model), q, kappa, 1, elem)
        on_legs = [e for e in calls if e != elem]
        assert len(on_legs) == len(calls) - 1
        assert all(len(e) == 1 for e in on_legs)
        applied = [next(iter(e.terms)) for e in on_legs]
        legs = kappa(elem).terms
        assert len(applied) == len(set(applied))
        assert set(applied) == {w for key in legs for w in key}
        shared += bool({k[0] for k in legs} & {k[1] for k in legs})
    assert shared >= 3


def test_coderivation_defect_embeds_each_tail_once_per_call(monkeypatch):
    """kappa embeds each distinct word once per call; delta_perm reads its
    embedding signs from its own table and embeds nothing."""
    embed = cooperations.embed_sym_into_pair
    calls = Counter()

    def counted(word, view):
        calls[word, view] += 1
        return embed(word, view)
    monkeypatch.setattr(cooperations, "embed_sym_into_pair", counted)
    model = FormsModel(2)
    rng = random.Random(3141)
    embedded = 0
    for _ in range(20):
        elem = rand_pair(model, rng)
        if elem is None:
            continue
        calls.clear()
        coderivation_defect(EnvelopeContext(model), q_total, delta_perm, 0, elem)
        assert not calls
        coderivation_defect(EnvelopeContext(model), q_total, kappa, 1, elem)
        assert set(calls.values()) <= {1}
        embedded += len(calls)
    assert embedded > 100


def test_coderivation_defect_checks_the_schema_once_per_input_word(monkeypatch):
    check = envelopes.is_pair_over_tensors
    calls = Counter()

    def counted(word):
        calls[word] += 1
        return check(word)
    monkeypatch.setattr(envelopes, "is_pair_over_tensors", counted)
    model = FormsModel(2)
    rng = random.Random(2718)
    legs = 0
    for _ in range(20):
        first, second = rand_pair(model, rng), rand_pair(model, rng)
        if first is None or second is None:
            continue
        elem = first + second
        for q in (m_map, r_map, q_total, functools.wraps(q_total)(lambda ctx, e: q_total(ctx, e))):
            for cop, cop_degree in ((delta_perm, 0), (kappa, 1)):
                calls.clear()
                defect = coderivation_defect(EnvelopeContext(model), q, cop, cop_degree, elem)
                assert calls == Counter(list(elem.terms))
                # any other map is called as it is, on elem and on every leg word
                calls.clear()
                other = lambda ctx, e, q=q: q(ctx, e)
                assert coderivation_defect(EnvelopeContext(model), other, cop, cop_degree,
                                           elem) == defect
                legs += sum(calls.values()) - len(elem.terms)
    assert legs > 100


def test_a_context_dies_with_its_last_reference():
    model = FormsModel(2)
    sign, tail = sym_word([Tensor((Gen(model.atom((1, 0), ())),)),
                           Tensor((Gen(model.atom((0, 1), ())),) * 2)], SHIFT2)
    elem = Element.single(Pair(Tensor((Gen(model.atom((1, 1), ())),) * 2), tail), sign)
    gc.collect()
    live = len(EnvelopeContext._live)
    gc.disable()
    try:
        ctx = EnvelopeContext(model)
        q_total(ctx, q_total(ctx, elem))
        coderivation_defect(ctx, q_total, kappa, 1, elem)
        assert ctx.images
        gone = weakref.ref(ctx)
        del ctx
        assert gone() is None
        assert len(EnvelopeContext._live) == live
    finally:
        gc.enable()


def word_table_sizes():
    return [len(t) for t in (words._TENSORS, words._SYMS, words._PAIRS)]


@pytest.mark.parametrize("suite", ["q-coderiv-delta", "q-square"])
def test_no_image_outlives_its_instance(monkeypatch, suite):
    spec = SUITE_SPECS[suite]
    build = spec.builder
    live_at_start = []

    def wrap(thunk):
        def run():
            live_at_start.append(len(EnvelopeContext._live))
            return thunk()
        return run

    def patched(config):
        instances = build(config)
        for inst in instances:
            inst.thunk = wrap(inst.thunk)
        return instances

    gc.collect()
    live = len(EnvelopeContext._live)
    monkeypatch.setattr(spec, "builder", patched)
    report = run_suite(SuiteConfig(suite, samples=12))
    assert report.passed == len(report.records) > 5
    assert live_at_start == [live] * len(report.records)


def test_word_tables_shrink_back_after_the_q_suites():
    gc.collect()
    before, live = word_table_sizes(), len(EnvelopeContext._live)
    for suite in ("q-coderiv-delta", "q-square"):
        assert run_suite(SuiteConfig(suite)).failed == 0
    gc.collect()
    assert word_table_sizes() == before
    assert len(EnvelopeContext._live) == live


def test_a_warm_context_sees_a_mutant_inside_its_block_only():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    u1 = Gen(model.atom((1, 0), ()))
    sign, tail = sym_word([Tensor((u1,)), Tensor((u1, u1))], SHIFT2)
    elem = Element.single(Pair(Tensor((u1,)), tail), sign)
    assert q_total(ctx, q_total(ctx, elem)).is_zero()
    assert ctx.images
    with mutant("l2_sym_sign_flip"):
        assert ctx.images == {}
        assert not q_total(ctx, q_total(ctx, elem)).is_zero()
    assert ctx.images == {}
    assert q_total(ctx, q_total(ctx, elem)).is_zero()
