"""The coproduct kernels: cached sort keys, insertion into canonical tails,
one image per leg word, and non-canonical inputs."""

import random

from pregerst.cooperations import delta_perm, kappa, kappa_prime
from pregerst.grading import BASE, SHIFT1, SHIFT2, GeneratorRegistry
from pregerst.words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    is_canonical,
    normalize,
    sort_key,
    sym_insert,
    sym_word,
)

VIEWS = (BASE, SHIFT1, SHIFT2)


def reference_key(word):
    """The recursive definition of the order on words."""
    if type(word) is Gen:
        return (0, word.gen.name, word.gen.degree)
    if type(word) is Tensor:
        return (1, tuple(reference_key(f) for f in word.factors))
    if type(word) is Sym:
        return (2, tuple(reference_key(f) for f in word.factors))
    return (3, reference_key(word.head), reference_key(word.tail))


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


def test_cached_sort_key_matches_the_recursive_definition():
    rng = random.Random(7321)
    reg = GeneratorRegistry()
    gens = [Gen(reg.declare("sk%d" % i, d)) for i, d in enumerate((1, 2, 3, 4))]
    for _ in range(300):
        word = random_word(rng, gens, 3)
        assert sort_key(word) == reference_key(word), word
        assert word.key == reference_key(word)


def test_sort_key_is_filled_on_first_use_only():
    reg = GeneratorRegistry()
    a, b = Gen(reg.declare("lazy_a", 1)), Gen(reg.declare("lazy_b", 2))
    word = Pair(Tensor((a, b)), Sym((Tensor((b,)),)))
    parts = [word, word.head, word.tail, a, b, Tensor((b,))]
    assert not any(hasattr(w, "key") for w in parts)
    key = sort_key(word)
    assert all(hasattr(w, "key") for w in parts)
    assert sort_key(word) is key


def test_sym_insert_equals_sym_word():
    rng = random.Random(9043)
    reg = GeneratorRegistry()
    gens = [Gen(reg.declare("si%d" % i, d)) for i, d in enumerate((1, 2, 3, 4, 2, 1))]
    tensors = [Tensor(rng.sample(gens, rng.randint(1, 3))) for _ in range(8)]
    nested = [Tensor((rng.choice(tensors), rng.choice(gens))) for _ in range(4)]
    pool = gens + tensors + nested
    seen = {"empty": 0, "even repeat": 0, "odd repeat": 0, "nested": 0}
    cases = 0
    while cases < 400:
        view = VIEWS[cases % 3]
        _, rest = sym_word(rng.choices(pool, k=rng.randint(0, 4)), view)
        if rest is None:
            continue
        rest = rest.factors
        word = rng.choice(rest) if rest and rng.random() < 0.3 else rng.choice(pool)
        for front in (True, False):
            expected = sym_word([word, *rest] if front else [*rest, word], view)
            assert sym_insert(word, rest, view, front) == expected, (word, rest, view, front)
        cases += 1
        seen["empty"] += not rest
        seen["nested"] += word in nested
        if word in rest:
            seen["odd repeat" if word.degrees[view] & 1 else "even repeat"] += 1
    assert all(seen.values()), seen


def test_leg_maps_apply_their_map_once_per_distinct_leg_word():
    reg = GeneratorRegistry()
    a, b, c = (Gen(reg.declare(n, d)) for n, d in (("la", 1), ("lb", 2), ("lc", 3)))
    ta, tb, tc = Tensor((a,)), Tensor((b,)), Tensor((c, a))
    elem = Element({(ta, tc): 1, (tb, tc): 2, (ta, ta): 3, (tc, tc): -1})
    calls = []

    def cop(w):
        calls.append(w)
        return Element({(w, w): 1, (w, ta): 2})

    def fn(w):      # a one-leg image
        calls.append(w)
        return Element({(w,): 1, (tb,): -1})

    for leg in (0, 1):
        calls.clear()
        out = elem.cosplit_leg(leg, cop, 1, SHIFT1)
        assert sorted(calls, key=sort_key) == sorted({k[leg] for k in elem.terms}, key=sort_key)
        expected = Element()
        for legs, k in elem.items():
            sign = -1 if legs[:leg] and legs[0].degrees[SHIFT1] & 1 else 1
            for split, k2 in cop(legs[leg]).items():
                expected.add_term(legs[:leg] + split + legs[leg + 1:], sign * k * k2)
        assert out == expected
        calls.clear()
        elem.cosplit_leg(leg, fn, 0, SHIFT1)
        assert len(calls) == len({k[leg] for k in elem.terms}) == len(set(calls))


def unsorted_pairs():
    """Pair words whose tail was built in a non-canonical order."""
    rng = random.Random(5150)
    out = []
    while len(out) < 25:
        reg = GeneratorRegistry()
        atoms = [Gen(reg.declare("u%d" % i, rng.randint(1, 4))) for i in range(9)]
        head = Tensor(atoms[:rng.randint(1, 3)])
        tails = [Tensor(atoms[3 + 2 * i:3 + 2 * i + rng.randint(1, 2)]) for i in range(3)]
        rng.shuffle(tails)
        if not is_canonical(tails, SHIFT2):
            out.append(Pair(head, Sym(tails)))
    return out


def test_coproducts_on_a_non_canonical_tail_equal_them_on_its_normal_form():
    reg = GeneratorRegistry()
    a, b, x = (Gen(reg.declare(n, d)) for n, d in (("na", 2), ("nb", 3), ("nx", 1)))
    words = [Pair(Tensor((x, a)), Sym((Tensor((b,)), Tensor((a, x)))))] + unsorted_pairs()
    nonzero = 0
    for word in words:
        raw = Element.single(word)
        norm = normalize(raw, SHIFT2)
        assert norm != raw
        assert kappa(raw) == kappa(norm)
        assert delta_perm(raw) == delta_perm(norm)
        tail = Element.single(word.tail)
        assert kappa_prime(tail) == kappa_prime(normalize(tail, SHIFT2))
        nonzero += not kappa(norm).is_zero() and not kappa_prime(tail).is_zero()
    assert nonzero > len(words) // 2


def test_a_repeated_odd_factor_out_of_order_is_zero():
    reg = GeneratorRegistry()
    p, q = Tensor((Gen(reg.declare("zp", 3)),)), Tensor((Gen(reg.declare("zq", 2)),))
    head = Tensor((Gen(reg.declare("zh", 1)), Gen(reg.declare("zk", 2))))
    assert p.degrees[SHIFT2] & 1          # p . p vanishes in the SHIFT2 view
    word = Element.single(Pair(head, Sym((p, q, p))))
    assert normalize(word, SHIFT2).is_zero()
    assert kappa(word).is_zero() and delta_perm(word).is_zero()
