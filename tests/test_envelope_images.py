"""The images of r2_words and zinfinity_d_word kept on an EnvelopeContext:
one computation per distinct argument, copies out, nothing kept from an
aborted computation, one context per suite instance, and emptied by mutant."""

import gc
import random
from collections import Counter

import pytest

from pregerst import envelopes, words
from pregerst.cooperations import delta_perm
from pregerst.envelopes import (
    EnvelopeContext,
    coderivation_defect,
    q_total,
    r2,
    r2_words,
    zinfinity_d,
    zinfinity_d_word,
)
from pregerst.errors import TermBudgetExceeded
from pregerst.grading import SHIFT2
from pregerst.models import FormsModel
from pregerst.mutations import mutant
from pregerst.suites import SUITE_SPECS, SuiteConfig, run_suite
from pregerst.words import (
    Element,
    Gen,
    Pair,
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


def counting(monkeypatch, name):
    """Replace the private body envelopes.<name> by a wrapper that counts its
    calls per (context, arguments)."""
    body = getattr(envelopes, name)
    calls = Counter()

    def wrapper(ctx, *args):
        calls[(id(ctx),) + args] += 1
        return body(ctx, *args)
    monkeypatch.setattr(envelopes, name, wrapper)
    return calls


def test_each_body_runs_once_per_distinct_argument_per_context(monkeypatch):
    r2_calls = counting(monkeypatch, "_r2_words")
    d_calls = counting(monkeypatch, "_zinfinity_d_word")
    public = Counter()
    r2_public = envelopes.r2_words

    def count_public(ctx, x, y):
        public["r2_words"] += 1
        return r2_public(ctx, x, y)
    monkeypatch.setattr(envelopes, "r2_words", count_public)
    model = FormsModel(2)
    rng = random.Random(4417)
    cop = lambda e: delta_perm(e, SHIFT2)
    contexts = []
    while len(contexts) < 8:
        elem = rand_pair(model, rng)
        if elem is None:
            continue
        ctx = EnvelopeContext(model)
        contexts.append(ctx)
        assert coderivation_defect(ctx, q_total, cop, 0, elem).is_zero()
        assert q_total(ctx, q_total(ctx, elem)).is_zero()
    assert set(r2_calls.values()) == {1} and set(d_calls.values()) == {1}
    assert len(r2_calls) + len(d_calls) == sum(len(c.images) for c in contexts)
    # the images were read more often than they were computed
    assert public["r2_words"] > 2 * len(r2_calls)


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


def test_a_returned_image_is_a_copy():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    x, y, w = Tensor((u1, u2)), Tensor((u2,)), Tensor((u1, u2, u1))
    r2_first, d_first = r2_words(ctx, x, y), zinfinity_d_word(ctx, w)
    assert not r2_first.is_zero() and not d_first.is_zero()
    expected_r2, expected_d = r2_first.copy(), d_first.copy()
    r2_first.add_term(x, 5)
    d_first.terms.clear()
    assert r2_words(ctx, x, y) == expected_r2
    assert zinfinity_d_word(ctx, w) == expected_d


def test_a_term_cap_abort_leaves_no_entry():
    model = FormsModel(2)
    ctx = EnvelopeContext(model)
    u1, u2 = Gen(model.atom((1, 0), ())), Gen(model.atom((0, 1), ()))
    x, y, w = Tensor((u1, u2)), Tensor((u2, u1)), Tensor((u1, u2, u1))
    previous = get_term_cap()
    set_term_cap(1)
    try:
        with pytest.raises(TermBudgetExceeded):
            r2_words(ctx, x, y)
        with pytest.raises(TermBudgetExceeded):
            zinfinity_d_word(ctx, w)
    finally:
        set_term_cap(previous)
    assert ctx.images == {}
    assert len(r2_words(ctx, x, y)) > 1 and len(zinfinity_d_word(ctx, w)) > 1
    assert set(ctx.images) == {(x, y), w}


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
