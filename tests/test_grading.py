"""Koszul signs, shuffle enumeration, degree bookkeeping."""

import itertools
import random

import pytest

from pregerst.grading import (
    Generator,
    GeneratorRegistry,
    Permutation,
    koszul_sign,
    rearrangement_sign,
    shuffles,
    shuffles_k1m,
)


def test_koszul_transposition_rule():
    # two odd symbols swap with a minus
    assert koszul_sign([1, 1], Permutation((2, 1))) == -1
    assert koszul_sign([1, 2], Permutation((2, 1))) == 1
    assert koszul_sign([2, 2], Permutation((2, 1))) == 1


def test_koszul_identity_is_plus_one():
    for degs in ([0], [1, 2, 3], [5, 5, 5, 5]):
        assert koszul_sign(degs, Permutation.identity(len(degs))) == 1


def test_koszul_reversal_by_adjacent_decomposition():
    # oracle: decompose the reversal into adjacent transpositions and
    # multiply the transposition signs along the way
    degs = [1, 2, 1]
    seq = [0, 1, 2]
    sign = 1
    target = [2, 1, 0]
    work = list(seq)
    while work != target:
        for i in range(len(work) - 1):
            # bubble toward the target order
            if target.index(work[i]) > target.index(work[i + 1]):
                if degs[work[i]] & 1 and degs[work[i + 1]] & 1:
                    sign = -sign
                work[i], work[i + 1] = work[i + 1], work[i]
                break
    assert sign == -1
    assert koszul_sign(degs, Permutation((3, 2, 1))) == -1


def test_koszul_all_even_and_all_odd():
    rng = random.Random(0)
    for n in range(2, 6):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for perm in perms:
            assert koszul_sign([2 * rng.randint(0, 3) for _ in range(n)], perm) == 1
        for perm in perms:
            # all odd degrees: the classical signature, i.e. inversion parity
            inv = sum(1 for i in range(n) for j in range(i + 1, n)
                      if perm.images[i] > perm.images[j])
            assert koszul_sign([1] * n, perm) == (-1) ** inv


def test_koszul_cocycle_property():
    # group-morphism behaviour: doing rho then sigma composes signs, with
    # the degrees transported by rho in the second factor
    for n in (2, 3, 4):
        perms = [Permutation(p) for p in itertools.permutations(range(1, n + 1))]
        for degs in ([1] * n, list(range(1, n + 1)), [1, 2] * n)[:3]:
            degs = degs[:n]
            for rho in perms:
                moved = [0] * n
                for i in range(n):
                    moved[rho.images[i] - 1] = degs[i]
                for sigma in perms:
                    lhs = koszul_sign(degs, sigma.compose(rho))
                    rhs = koszul_sign(degs, rho) * koszul_sign(moved, sigma)
                    assert lhs == rhs


def test_koszul_cocycle_exhaustive_n5_single_vector():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 6))]
    degs = [1, 2, 1, 2, 1]
    for rho in perms:
        moved = [0] * 5
        for i in range(5):
            moved[rho.images[i] - 1] = degs[i]
        for sigma in perms:
            assert koszul_sign(degs, sigma.compose(rho)) == \
                koszul_sign(degs, rho) * koszul_sign(moved, sigma)


def test_rearrangement_sign_matches_inverse_permutation():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 6)
        degs = [rng.randint(0, 3) for _ in range(n)]
        order = list(range(n))
        rng.shuffle(order)
        # the sequence (x_{order[k]}) corresponds to the place permutation
        # sending original position order[k] to slot k+1
        images = [0] * n
        for slot, orig in enumerate(order):
            images[orig] = slot + 1
        assert rearrangement_sign(degs, order) == koszul_sign(degs, Permutation(images))


def test_koszul_size_mismatch():
    with pytest.raises(ValueError):
        koszul_sign([1, 1, 1], Permutation((2, 1)))


def test_permutation_validation_and_inverse():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    p = Permutation((3, 1, 2))
    assert p.inverse().compose(p) == Permutation.identity(3)


def binom(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def test_shuffles_cardinality_and_monotonicity():
    for total in range(2, 9):
        for p in range(1, total):
            q = total - p
            result = shuffles(p, q)
            assert len(result) == binom(total, p)
            assert len(set(result)) == len(result)
            for perm in result:
                imgs = perm.images
                assert all(imgs[i] < imgs[i + 1] for i in range(p - 1))
                assert all(imgs[p + i] < imgs[p + i + 1] for i in range(q - 1))


def test_shuffles_empty_side_is_identity():
    assert shuffles(0, 3) == [Permutation.identity(3)]
    assert shuffles(2, 0) == [Permutation.identity(2)]
    with pytest.raises(ValueError):
        shuffles(-1, 2)


def test_shuffles_block_swap_relation():
    # Sh(p,q) and Sh(q,p) agree after swapping the two source blocks: the
    # block swap sends positions 1..p to q+1..q+p and p+1..p+q to 1..q
    for total in range(2, 7):
        for p in range(1, total):
            q = total - p
            swap = Permutation(tuple(range(q + 1, total + 1)) + tuple(range(1, q + 1)))
            left = {perm.images for perm in shuffles(p, q)}
            right = {perm.compose(swap).images for perm in shuffles(q, p)}
            assert left == right


def test_shuffles_k1m_counts():
    def multinomial(k, m):
        n = k + 1 + m
        out = 1
        for i in range(2, n + 1):
            out *= i
        for block in (k, m):
            for i in range(2, block + 1):
                out //= i
        return out

    assert [p.images for p in shuffles_k1m(0, 0)] == [(1,)]
    assert len(shuffles_k1m(1, 0)) == 2
    assert len(shuffles_k1m(0, 1)) == 2
    for k in range(0, 4):
        for m in range(0, 4):
            result = shuffles_k1m(k, m)
            assert len(result) == multinomial(k, m)
            assert len(set(result)) == len(result)
            for perm in result:
                imgs = perm.images
                assert all(imgs[i] < imgs[i + 1] for i in range(k - 1))
                assert all(imgs[k + 1 + i] < imgs[k + 1 + i + 1] for i in range(m - 1))


def test_registry_uniqueness():
    reg = GeneratorRegistry()
    a = reg.declare("a", 2)
    assert reg.declare("a", 2) is a
    with pytest.raises(ValueError):
        reg.declare("a", 3)
    assert reg.get("a").degree == 2
    with pytest.raises(KeyError):
        reg.get("zz")


def test_generator_degree_views():
    from pregerst.grading import BASE, SHIFT1, SHIFT2
    from pregerst.words import degree
    g = Generator("x", 5)
    assert degree(g, BASE) == 5
    assert degree(g, SHIFT1) == 4
    assert degree(g, SHIFT2) == 3


def test_generator_is_a_named_tuple_hashed_at_c_level():
    from pregerst.words import Element, _require_legs, element_to_text
    from pregerst.errors import SchemaError
    g = Generator("x", 5)
    assert repr(g) == "Generator('x', 5)"
    assert Generator.__hash__ is tuple.__hash__ and Generator.__eq__ is tuple.__eq__
    assert g == Generator("x", 5) and hash(g) == hash(Generator("x", 5))
    assert g != Generator("x", 4)
    # an atom is not a tuple of legs
    assert type(g) is not tuple
    with pytest.raises(SchemaError):
        _require_legs(g, 1)
    assert element_to_text(Element({g: 2, Generator("w", 1): -1})) == "-1/1 * w + 2/1 * x"


def test_degree_reads_no_enum_attribute():
    import sys
    from pregerst.grading import BASE, SHIFT1, SHIFT2, GradingView
    from pregerst.words import Gen, Pair, Sym, Tensor, degree
    assert (10, 11, 12)[SHIFT2] == 12
    a = Gen(Generator("a", 3))
    words = [a, Tensor((a, a)), Sym((a,)), Pair(a, Sym(())), Generator("b", 2)]
    views = tuple(GradingView)
    enum_calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.endswith("enum.py"):
            enum_calls.append(frame.f_code.co_name)
    sys.setprofile(profile)
    try:
        degs = [degree(w, view) for w in words for view in views]
    finally:
        sys.setprofile(None)
    assert not enum_calls
    assert degs == [3, 2, 1, 6, 4, 3, 3, 2, 1, 3, 2, 1, 2, 1, 0]
    assert [degree(Generator("b", 2), v) for v in (BASE, SHIFT1, SHIFT2)] == [2, 1, 0]
