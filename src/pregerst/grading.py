"""Degree bookkeeping, Koszul signs, permutations and shuffle enumeration.

Three gradings coexist on every symbol: the base degree |x|, the once-shifted
degree deg(x) = |x| - 1 and the twice-shifted degree deg'(x) = deg(x) - 1.
Which of the three a sign computation uses is never implicit; every
sign-sensitive routine takes a GradingView.

Sign conventions.  Permutations act on positions: a Permutation with images
(s_1, ..., s_n) moves the symbol sitting in slot i to slot s_i.  The Koszul
sign of that move is the product of (-1)^{d_i d_j} over all pairs that cross,
which for a place permutation is exactly the set of inversions of the image
tuple.  Rearranging a sequence so that slot k receives the symbol originally
at position order[k] is the same action for the inverse permutation;
rearrangement_sign computes that sign directly from the order list, which is
the shape almost every coproduct formula wants.  SIGN[p] is (-1)^p for a
parity p; every sign the package derives from a parity reads it.
"""

from __future__ import annotations

from enum import IntEnum
from itertools import combinations
from typing import NamedTuple


# (-1)^p for a parity p in {0, 1}, as SIGN[p]
SIGN = (1, -1)


class GradingView(IntEnum):
    """Selects |x|, deg(x) or deg'(x) for sign purposes.  A view is also the
    shift it applies (deg = |x| - view) and the index of its entry in a
    word's cached degrees."""

    BASE = 0
    SHIFT1 = 1
    SHIFT2 = 2


BASE = GradingView.BASE
SHIFT1 = GradingView.SHIFT1
SHIFT2 = GradingView.SHIFT2


class Generator(NamedTuple):
    """A named homogeneous symbol; degree is the base degree |x|.  A named
    tuple, so that hashing and equality run at C level; it is not a tuple of
    legs (type(g) is not tuple)."""

    name: str
    degree: int

    def __repr__(self):
        return "Generator(%r, %d)" % (self.name, self.degree)


class GeneratorRegistry:
    """Names are unique; redeclaring with a different degree is an error."""

    def __init__(self):
        self._by_name = {}

    def declare(self, name: str, degree: int) -> Generator:
        existing = self._by_name.get(name)
        if existing is not None:
            if existing.degree != degree:
                raise ValueError(
                    "generator %r already declared with degree %d"
                    % (name, existing.degree)
                )
            return existing
        gen = Generator(name, degree)
        self._by_name[name] = gen
        return gen

    def get(self, name: str) -> Generator:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError("unknown generator %r" % name) from None


class Permutation:
    """A bijection of {1..n}, stored as the tuple of 1-based images."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(int(i) for i in images)
        n = len(images)
        if sorted(images) != list(range(1, n + 1)):
            raise ValueError("not a bijection on {1..%d}: %r" % (n, images))
        self.images = images

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(range(1, n + 1))

    def __len__(self):
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return "Permutation(%r)" % (self.images,)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, s in enumerate(self.images, start=1):
            inv[s - 1] = i
        return Permutation(inv)

    def compose(self, inner: "Permutation") -> "Permutation":
        """self o inner: apply inner first, then self."""
        if len(inner) != len(self):
            raise ValueError("size mismatch in composition")
        return Permutation(self.images[j - 1] for j in inner.images)


def koszul_sign(degrees, perm: Permutation) -> int:
    """Sign picked up when slot i moves to slot perm(i), degrees as given.

    Multiplicative extension of the transposition rule (i j) -> (-1)^{d_i d_j};
    equals the product over inversions (i < j with perm(i) > perm(j)) of
    (-1)^{d_i d_j}, which is rearrangement_sign for the inverse permutation
    as 0-based positions.
    """
    if len(degrees) != len(perm):
        raise ValueError("degree list has %d entries, permutation has %d"
                         % (len(degrees), len(perm)))
    return rearrangement_sign(degrees, [i - 1 for i in perm.inverse().images])


def rearrangement_sign(degrees, order) -> int:
    """Koszul sign of the rearranged sequence (x_{order[0]}, x_{order[1]}, ...).

    order lists 0-based original positions; degrees are indexed by original
    position.  The sign is the product of (-1)^{d_i d_j} over the pairs the
    rearrangement crosses; inversion counting is O(n^2), words here are short.
    """
    m = len(order)
    crossings = 0
    for a in range(m):
        ia = order[a]
        if not degrees[ia] & 1:
            continue
        for b in range(a + 1, m):
            ib = order[b]
            if ia > ib and degrees[ib] & 1:
                crossings += 1
    return SIGN[crossings & 1]


def shuffles(p: int, q: int):
    """All (p,q)-shuffles: images increasing on 1..p and on p+1..p+q.

    Enumeration is lexicographic over the p-subset of target positions taken
    by the first block, so the order is deterministic.  An empty side yields
    the singleton identity, which is what boundary cases downstream rely on.
    """
    if p < 0 or q < 0:
        raise ValueError("shuffle block sizes must be nonnegative")
    n = p + q
    if p == 0 or q == 0:
        return [Permutation.identity(n)]
    out = []
    positions = range(1, n + 1)
    for first_block in combinations(positions, p):
        taken = set(first_block)
        rest = [pos for pos in positions if pos not in taken]
        out.append(Permutation(first_block + tuple(rest)))
    return out


def shuffles_k1m(k: int, m: int):
    """Permutations of n = k+1+m letters increasing on the first k images and
    the last m images, with the (k+1)-st image free; there are n!/(k! m!)."""
    if k < 0 or m < 0:
        raise ValueError("block sizes must be nonnegative")
    n = k + 1 + m
    out = []
    values = range(1, n + 1)
    for first_block in combinations(values, k):
        taken = set(first_block)
        rest = [v for v in values if v not in taken]
        for mid in rest:
            tail = tuple(v for v in rest if v != mid)
            out.append(Permutation(first_block + (mid,) + tail))
    return out
