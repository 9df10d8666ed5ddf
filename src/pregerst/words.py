"""Free modules of formal linear combinations over tensor, symmetric and pair
words, with signed normalization, shuffle products, the recursive mu maps and
the symmetric-to-pair embedding.

Word shapes.  Gen wraps a single generator.  Tensor is an ordered word (legs
are Gen atoms in the spaces used here).  Sym is an unordered word kept in a
canonical sorted order; sorting happens in the smart constructor, which also
returns the Koszul sign of the sort and annihilates words with a repeated
factor of odd view-degree (over the rationals x.x = -x.x forces x.x = 0).
Pair is head-tensor-with-symmetric-tail; an empty Sym tail is legal only
inside a Pair, where it plays the role of "x tensor 1".

Elements are finite maps word -> coefficient with no zero coefficients; the
empty map is zero.  A coefficient is an exact int while it is integral and a
Fraction once a division has made it so; floats never get in, because the
scalar entry points (single, scaled) pass anything that is not an int through
Fraction.  TensorPowerElement is the same over k-tuples of words and
is the codomain of every coproduct and iterated coproduct.

Degrees of composite words per view: a Tensor word sums its legs' deg for the
SHIFT1 view and subtracts one more for SHIFT2 (the word seen one shift
deeper); Sym and Pair just sum their children in the given view.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import itemgetter

from .errors import SchemaError, TermBudgetExceeded
from .grading import (
    SHIFT1,
    SHIFT2,
    GradingView,
    Generator,
    Permutation,
    koszul_sign,
    rearrangement_sign,
    shuffles,
)
from .mutations import NO_MUTATIONS

# Cap on the number of terms any single element or tensor-power element may
# hold; exceeding it raises TermBudgetExceeded so a run can abort explicitly
# instead of thrashing.
_TERM_CAP = 10**6


def set_term_cap(cap: int):
    global _TERM_CAP
    _TERM_CAP = int(cap)


def get_term_cap() -> int:
    return _TERM_CAP


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class Word:
    __slots__ = ()


class Gen(Word):
    __slots__ = ("gen", "_hash")

    def __init__(self, gen: Generator):
        self.gen = gen
        self._hash = hash(("g", gen.name))

    def __eq__(self, other):
        return type(other) is Gen and other.gen == self.gen

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return self.gen.name


class Tensor(Word):
    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        factors = tuple(factors)
        if not factors:
            raise SchemaError("tensor words need at least one factor")
        self.factors = factors
        self._hash = hash(("t", factors))

    def __eq__(self, other):
        return type(other) is Tensor and other.factors == self.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "T(%s)" % ",".join(map(repr, self.factors))


class Sym(Word):
    """Canonically sorted symmetric word.  Build through sym_word()."""

    __slots__ = ("factors", "_hash")

    def __init__(self, factors):
        factors = tuple(factors)
        self.factors = factors
        self._hash = hash(("s", factors))

    def __eq__(self, other):
        return type(other) is Sym and other.factors == self.factors

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "S(%s)" % ",".join(map(repr, self.factors))


class Pair(Word):
    __slots__ = ("head", "tail", "_hash")

    def __init__(self, head: Word, tail: Sym):
        if not isinstance(head, (Gen, Tensor)):
            raise SchemaError("pair head must be a generator or tensor word")
        if not isinstance(tail, Sym):
            raise SchemaError("pair tail must be a symmetric word")
        self.head = head
        self.tail = tail
        self._hash = hash(("p", head, tail))

    def __eq__(self, other):
        return type(other) is Pair and other.head == self.head and other.tail == self.tail

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "P(%r; %r)" % (self.head, self.tail)


def sort_key(word: Word):
    """Total order on words: recursive lexicographic on (variant tag, name,
    children).  Independent of degrees, so equal words are always adjacent."""
    if type(word) is Gen:
        return (0, word.gen.name)
    if type(word) is Tensor:
        return (1, tuple(sort_key(f) for f in word.factors))
    if type(word) is Sym:
        return (2, tuple(sort_key(f) for f in word.factors))
    return (3, sort_key(word.head), sort_key(word.tail))


def degree(word: Word, view: GradingView) -> int:
    if type(word) is Gen:
        return word.gen.degree - view.value
    if type(word) is Tensor:
        total = sum(degree(f, SHIFT1) for f in word.factors)
        if view is SHIFT2:
            return total - 1
        if view is SHIFT1:
            return total
        return sum(degree(f, view) for f in word.factors)
    if type(word) is Sym:
        return sum(degree(f, view) for f in word.factors)
    return degree(word.head, view) + degree(word.tail, view)


def tensor_word(factors) -> Tensor:
    return Tensor(factors)


def sym_word(factors, view: GradingView):
    """Sort the factors canonically; return (sign, Sym) or (0, None) when the
    word is annihilated by a repeated odd factor.  The sign is the Koszul sign
    of the stable sort in the given view."""
    factors = list(factors)
    if not factors:
        return 1, Sym(())
    order = sorted(range(len(factors)), key=lambda i: sort_key(factors[i]))
    degs = [degree(f, view) for f in factors]
    sign = rearrangement_sign(degs, order)
    sorted_factors = [factors[i] for i in order]
    for a in range(len(sorted_factors) - 1):
        if sorted_factors[a] == sorted_factors[a + 1] and degree(sorted_factors[a], view) & 1:
            return 0, None
    return sign, Sym(sorted_factors)


def pair_word(head: Word, tail: Sym) -> Pair:
    return Pair(head, tail)


EMPTY_SYM = Sym(())


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _exact(scalar):
    """An int stays an int; anything else becomes an exact Fraction."""
    return scalar if type(scalar) is int else Fraction(scalar)


class Element:
    """Finite formal linear combination of words over exact rationals."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def zero() -> "Element":
        return Element()

    @staticmethod
    def single(word: Word, coeff=1) -> "Element":
        coeff = _exact(coeff)
        if coeff == 0:
            return Element()
        return Element({word: coeff})

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, word: Word, coeff):
        if coeff == 0:
            return
        acc = self.terms.get(word)
        if acc is None:
            self.terms[word] = coeff
            if len(self.terms) > _TERM_CAP:
                raise TermBudgetExceeded(len(self.terms), _TERM_CAP)
        else:
            acc = acc + coeff
            if acc == 0:
                del self.terms[word]
            else:
                self.terms[word] = acc

    def __add__(self, other: "Element") -> "Element":
        out = Element(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, c)
        return out

    def __sub__(self, other: "Element") -> "Element":
        out = Element(self.terms)
        for w, c in other.terms.items():
            out.add_term(w, -c)
        return out

    def __neg__(self) -> "Element":
        return Element({w: -c for w, c in self.terms.items()})

    def scaled(self, scalar) -> "Element":
        scalar = _exact(scalar)
        if scalar == 0:
            return Element()
        return Element({w: c * scalar for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Element) and self.terms == other.terms

    def __hash__(self):
        raise TypeError("elements are not hashable")

    def items(self):
        return self.terms.items()

    def words(self):
        return list(self.terms)

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "Element(%s)" % element_to_text(self)

    def map_words(self, fn) -> "Element":
        """Linear extension of fn: Word -> Element."""
        out = Element()
        for w, c in self.terms.items():
            for w2, c2 in fn(w).terms.items():
                out.add_term(w2, c * c2)
        return out

    def homogeneous_degree(self, view: GradingView):
        """The common view-degree of all words, or None if mixed or zero."""
        degs = {degree(w, view) for w in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None


class TensorPowerElement:
    """Linear combination of k-tuples of words; the codomain of coproducts."""

    __slots__ = ("arity", "terms")

    def __init__(self, arity: int, terms=None):
        if arity < 1:
            raise ValueError("arity must be >= 1")
        self.arity = arity
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def zero(arity: int) -> "TensorPowerElement":
        return TensorPowerElement(arity)

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, legs, coeff):
        if coeff == 0:
            return
        legs = tuple(legs)
        if len(legs) != self.arity:
            raise SchemaError("expected %d legs, got %d" % (self.arity, len(legs)))
        acc = self.terms.get(legs)
        if acc is None:
            self.terms[legs] = coeff
            if len(self.terms) > _TERM_CAP:
                raise TermBudgetExceeded(len(self.terms), _TERM_CAP)
        else:
            acc = acc + coeff
            if acc == 0:
                del self.terms[legs]
            else:
                self.terms[legs] = acc

    def __add__(self, other):
        self._check(other)
        out = TensorPowerElement(self.arity, self.terms)
        for legs, c in other.terms.items():
            out.add_term(legs, c)
        return out

    def __sub__(self, other):
        self._check(other)
        out = TensorPowerElement(self.arity, self.terms)
        for legs, c in other.terms.items():
            out.add_term(legs, -c)
        return out

    def __neg__(self):
        return TensorPowerElement(self.arity, {k: -c for k, c in self.terms.items()})

    def scaled(self, scalar):
        scalar = _exact(scalar)
        if scalar == 0:
            return TensorPowerElement(self.arity)
        return TensorPowerElement(self.arity, {k: c * scalar for k, c in self.terms.items()})

    def _check(self, other):
        if not isinstance(other, TensorPowerElement) or other.arity != self.arity:
            raise SchemaError("tensor-power arity mismatch")

    def __eq__(self, other):
        return (
            isinstance(other, TensorPowerElement)
            and other.arity == self.arity
            and other.terms == self.terms
        )

    def __hash__(self):
        raise TypeError("tensor-power elements are not hashable")

    def items(self):
        return self.terms.items()

    def __len__(self):
        return len(self.terms)

    def __repr__(self):
        return "TensorPowerElement(%d, %s)" % (self.arity, tpe_to_text(self))

    def map_leg(self, leg: int, fn, fn_degree: int, view: GradingView):
        """Apply the linear map fn (Word -> Element) to one leg, with the
        Koszul sign of carrying a map of the given degree past earlier legs."""
        out = TensorPowerElement(self.arity)
        for legs, c in self.terms.items():
            if fn_degree & 1:
                passed = sum(degree(w, view) for w in legs[:leg])
                sign = -1 if passed & 1 else 1
            else:
                sign = 1
            image = fn(legs[leg])
            for w2, c2 in image.terms.items():
                out.add_term(legs[:leg] + (w2,) + legs[leg + 1:], c * c2 * sign)
        return out

    def cosplit_leg(self, leg: int, cop, cop_degree: int, view: GradingView):
        """Apply the coproduct cop (Word -> TensorPowerElement(2)) to one leg,
        expanding arity by one, with the same passing-sign convention."""
        out = TensorPowerElement(self.arity + 1)
        for legs, c in self.terms.items():
            if cop_degree & 1:
                passed = sum(degree(w, view) for w in legs[:leg])
                sign = -1 if passed & 1 else 1
            else:
                sign = 1
            image = cop(legs[leg])
            for split, c2 in image.terms.items():
                out.add_term(legs[:leg] + split + legs[leg + 1:], c * c2 * sign)
        return out

    def volte(self, leg: int, view: GradingView):
        """Graded swap of legs (leg, leg+1): sign (-1)^{deg(a) deg(b)}."""
        out = TensorPowerElement(self.arity)
        for legs, c in self.terms.items():
            a, b = legs[leg], legs[leg + 1]
            if degree(a, view) & 1 and degree(b, view) & 1:
                c = -c
            out.add_term(legs[:leg] + (b, a) + legs[leg + 2:], c)
        return out


# ---------------------------------------------------------------------------
# signed operations
# ---------------------------------------------------------------------------

def _placer(perm: Permutation):
    """The map that puts factor i of a factor tuple in slot perm(i): an
    itemgetter of, for each slot, the position of the factor landing there."""
    if len(perm) == 1:
        return tuple
    order = [0] * len(perm)
    for i, s in enumerate(perm.images):
        order[s - 1] = i
    return itemgetter(*order)


def signed_permute(word: Tensor, perm: Permutation, view: GradingView) -> Element:
    """Signed place permutation: slot i moves to slot perm(i)."""
    factors = word.factors
    if len(perm) != len(factors):
        raise ValueError("permutation size %d does not match word length %d" % (len(perm), len(factors)))
    degs = [degree(f, view) for f in factors]
    sign = koszul_sign(degs, perm)
    return Element.single(Tensor(_placer(perm)(factors)), sign)


def _odd_mask(factors, view: GradingView) -> int:
    """Odd-degree pattern of a word: bit i is set when factor i is odd."""
    mask = 0
    for i, f in enumerate(factors):
        if degree(f, view) & 1:
            mask |= 1 << i
    return mask


def _mask_degrees(n: int, mask: int):
    return [(mask >> i) & 1 for i in range(n)]


@lru_cache(maxsize=None)
def _shuffle_placers(p: int, q: int):
    return tuple(_placer(perm) for perm in shuffles(p, q))


@lru_cache(maxsize=None)
def _shuffle_signs(p: int, q: int, mask: int):
    """Koszul sign of each (p,q)-shuffle, in _shuffle_placers order, for the
    words whose odd-degree pattern is mask."""
    degs = _mask_degrees(p + q, mask)
    return tuple(koszul_sign(degs, perm) for perm in shuffles(p, q))


def _add_placed(out: Element, factors: tuple, placers, signs, coeff):
    """Add coeff * sign * (the placed factors) for each row of the tables."""
    add = out.add_term
    for place, sign in zip(placers, signs):
        add(Tensor(place(factors)), coeff if sign > 0 else -coeff)


def shuffle_factors(left, right, view: GradingView, mutations=NO_MUTATIONS) -> Element:
    """Signed sum over (p,q)-shuffles of the concatenated factor lists.

    Empty sides degenerate to the single unshuffled word; with both sides
    empty this is the empty product and the caller must not ask for a word.
    Unsigned shuffles (a mutation) read the sign table of the all-even pattern.
    """
    left = tuple(left)
    right = tuple(right)
    p, q = len(left), len(right)
    factors = left + right
    if p == 0 and q == 0:
        raise SchemaError("cannot shuffle two empty words into a tensor word")
    out = Element()
    if p == 0 or q == 0:
        out.add_term(Tensor(factors), 1)
        return out
    mask = 0 if mutations.shuffle_unsigned else _odd_mask(factors, view)
    _add_placed(out, factors, _shuffle_placers(p, q), _shuffle_signs(p, q, mask), 1)
    return out


def shuffle_product(left: Tensor, right: Tensor, view: GradingView,
                    mutations=NO_MUTATIONS) -> Element:
    if not isinstance(left, Tensor) or not isinstance(right, Tensor):
        raise SchemaError("shuffle product expects tensor words")
    return shuffle_factors(left.factors, right.factors, view, mutations)


@lru_cache(maxsize=None)
def _mu_table(n: int, mu2_identity: bool):
    """mu_n as a list of (Permutation, +-1); Koszul signs are applied per word.

    mu_1 = id and mu_{n+1} = mu_n x id - (mu_n x id) o (inverse cycle), the
    cycle being (1 ... n+1).  With the mutation flag the n = 2 step keeps only
    the identity term, and the defect propagates to every higher mu.
    """
    if n < 1:
        raise ValueError("mu arity must be >= 1")
    if n == 1:
        return ((Permutation.identity(1), 1),)
    prev = _mu_table(n - 1, mu2_identity)
    extended = [(Permutation(p.images + (n,)), c) for p, c in prev]
    if n == 2 and mu2_identity:
        return tuple(extended)
    cycle_inv = Permutation((n,) + tuple(range(1, n)))
    out = list(extended)
    for p, c in extended:
        out.append((p.compose(cycle_inv), -c))
    return tuple(out)


@lru_cache(maxsize=None)
def _mu_placers(n: int, mu2_identity: bool):
    return tuple(_placer(perm) for perm, _ in _mu_table(n, mu2_identity))


@lru_cache(maxsize=None)
def _mu_signs(n: int, mask: int, mu2_identity: bool):
    """Sign of each mu_n term, table coefficient times Koszul sign, in
    _mu_placers order, for the words whose odd-degree pattern is mask."""
    degs = _mask_degrees(n, mask)
    return tuple(c * koszul_sign(degs, perm) for perm, c in _mu_table(n, mu2_identity))


def mu_word(word: Tensor, view: GradingView, mutations=NO_MUTATIONS) -> Element:
    """Apply mu_n for n = word length; linear combination of same-length words."""
    return mu(len(word.factors), word, view, mutations)


def mu(n: int, elem, view: GradingView, mutations=NO_MUTATIONS) -> Element:
    """mu_n on a tensor word or element whose words all have length n."""
    if isinstance(elem, Tensor):
        elem = Element.single(elem)
    flag = mutations.mu2_identity
    placers = _mu_placers(n, flag)
    out = Element()
    for w, c in elem.items():
        if not isinstance(w, Tensor) or len(w.factors) != n:
            raise SchemaError("mu_%d needs tensor words of length %d" % (n, n))
        factors = w.factors
        _add_placed(out, factors, placers, _mu_signs(n, _odd_mask(factors, view), flag), c)
    return out


def sym_product(a: Element, b: Element, view: GradingView) -> Element:
    """Concatenate-then-normalize product on symmetric words; bilinear and
    graded-commutative in the view grading."""
    out = Element()
    for w1, c1 in a.items():
        if not isinstance(w1, Sym):
            raise SchemaError("sym_product expects symmetric words")
        for w2, c2 in b.items():
            if not isinstance(w2, Sym):
                raise SchemaError("sym_product expects symmetric words")
            sign, word = sym_word(w1.factors + w2.factors, view)
            if word is not None:
                out.add_term(word, c1 * c2 * sign)
    return out


def embed_sym_into_pair(word: Sym, view: GradingView, mutations=NO_MUTATIONS) -> Element:
    """Identify a symmetric word with a sum of pair words: each factor takes a
    turn as the head, signed by moving it to the front; the remaining factors
    stay as the tail.  One term per factor before normalization."""
    factors = word.factors
    if not factors:
        raise SchemaError("cannot embed the empty symmetric word")
    degs = [degree(f, view) for f in factors]
    out = Element()
    for h in range(len(factors)):
        if mutations.embed_unsigned:
            sign = 1
        else:
            moved = sum(1 for i in range(h) if degs[i] & 1)
            sign = -1 if (degs[h] & 1 and moved & 1) else 1
        rest = factors[:h] + factors[h + 1:]
        out.add_term(Pair(factors[h], Sym(rest)), sign)
    return out


def embed_element(elem: Element, view: GradingView, mutations=NO_MUTATIONS) -> Element:
    out = Element()
    for w, c in elem.items():
        for w2, c2 in embed_sym_into_pair(w, view, mutations).items():
            out.add_term(w2, c * c2)
    return out


# ---------------------------------------------------------------------------
# normalization of raw input
# ---------------------------------------------------------------------------

def _rebuild(word: Word, view: GradingView):
    """Recursively canonicalize one word; returns (sign, word or None)."""
    if type(word) is Gen:
        return 1, word
    if type(word) is Tensor:
        sign = 1
        parts = []
        for f in word.factors:
            s, w = _rebuild(f, view)
            if w is None:
                return 0, None
            sign *= s
            parts.append(w)
        return sign, Tensor(parts)
    if type(word) is Sym:
        sign = 1
        parts = []
        for f in word.factors:
            s, w = _rebuild(f, view)
            if w is None:
                return 0, None
            sign *= s
            parts.append(w)
        s, w = sym_word(parts, view)
        if w is None:
            return 0, None
        return sign * s, w
    s1, head = _rebuild(word.head, view)
    if head is None:
        return 0, None
    s2, tail = _rebuild(word.tail, view)
    if tail is None:
        return 0, None
    return s1 * s2, Pair(head, tail)


def normalize(raw: Element, view: GradingView) -> Element:
    """Canonicalize every word (sorting symmetric factors with the Koszul sign
    in the given view, dropping odd squares), drop zero coefficients.
    Idempotent."""
    schema = {_schema_tag(w) for w in raw.terms}
    if len(schema) > 1:
        raise SchemaError("mixed word schemas in one element: %s" % sorted(schema))
    out = Element()
    for w, c in raw.items():
        sign, word = _rebuild(w, view)
        if word is not None:
            out.add_term(word, c * sign)
    return out


def _schema_tag(word: Word) -> str:
    if type(word) is Gen:
        return "gen"
    if type(word) is Tensor:
        return "tensor"
    if type(word) is Sym:
        return "sym"
    return "pair"


# ---------------------------------------------------------------------------
# schema validation helpers
# ---------------------------------------------------------------------------

def is_tensor_of_gens(word: Word) -> bool:
    return type(word) is Tensor and all(type(f) is Gen for f in word.factors)


def is_sym_of(word: Word, leg_check) -> bool:
    return type(word) is Sym and all(leg_check(f) for f in word.factors)


def is_pair_over_tensors(word: Word) -> bool:
    return (
        type(word) is Pair
        and is_tensor_of_gens(word.head)
        and is_sym_of(word.tail, is_tensor_of_gens)
    )


def is_pair_over_gens(word: Word) -> bool:
    return (
        type(word) is Pair
        and type(word.head) is Gen
        and is_sym_of(word.tail, lambda f: type(f) is Gen)
    )


def require(elem: Element, predicate, what: str):
    for w in elem.terms:
        if not predicate(w):
            raise SchemaError("word %s does not belong to %s" % (word_to_text(w), what))


# ---------------------------------------------------------------------------
# canonical text serialization
# ---------------------------------------------------------------------------

def word_to_text(word: Word) -> str:
    if type(word) is Gen:
        return word.gen.name
    if type(word) is Tensor:
        return "T(%s)" % ",".join(word_to_text(f) for f in word.factors)
    if type(word) is Sym:
        return "S(%s)" % ",".join(word_to_text(f) for f in word.factors)
    return "P(%s; %s)" % (word_to_text(word.head), word_to_text(word.tail))


def _coeff_to_text(c) -> str:
    return "%d/%d" % (c.numerator, c.denominator)


def element_to_text(elem: Element) -> str:
    if elem.is_zero():
        return "0"
    parts = []
    for w in sorted(elem.terms, key=sort_key):
        parts.append("%s * %s" % (_coeff_to_text(elem.terms[w]), word_to_text(w)))
    return " + ".join(parts)


def tpe_to_text(tpe: TensorPowerElement) -> str:
    if tpe.is_zero():
        return "0"
    keys = sorted(tpe.terms, key=lambda legs: tuple(sort_key(w) for w in legs))
    parts = []
    for legs in keys:
        body = " # ".join(word_to_text(w) for w in legs)
        parts.append("%s * %s" % (_coeff_to_text(tpe.terms[legs]), body))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser:
    """Recursive-descent parser for the element grammar:

        element := term ('+' term)* | '0'
        term    := rational '*' word
        word    := NAME | 'T(' word (',' word)* ')'
                        | 'S(' word (',' word)* ')' | 'S()'
                        | 'P(' word ';' word ')'

    Rationals are 'p/q' (q > 0) or a bare integer.  Whitespace is free.
    """

    def __init__(self, text: str, registry):
        self.text = text
        self.pos = 0
        self.registry = registry

    def error(self, message):
        from .errors import ParseError

        raise ParseError(message, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] in " \t\n":
            self.pos += 1

    def peek(self):
        self.skip_ws()
        if self.pos >= len(self.text):
            return ""
        return self.text[self.pos]

    def expect(self, ch):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.error("expected %r" % ch)
        self.pos += 1

    def parse_element(self) -> Element:
        self.skip_ws()
        if self.peek() == "0":
            save = self.pos
            self.pos += 1
            self.skip_ws()
            if self.pos >= len(self.text):
                return Element()
            self.pos = save
        out = Element()
        while True:
            coeff = self.parse_rational()
            self.expect("*")
            word = self.parse_word()
            out.add_term(word, coeff)
            self.skip_ws()
            if self.pos >= len(self.text):
                return out
            self.expect("+")

    def parse_rational(self):
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        if not (self.pos < len(self.text) and self.text[self.pos].isdigit()):
            self.error("expected a rational coefficient")
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        num = int(self.text[start:self.pos])
        if self.peek() == "/":
            self.pos += 1
            dstart = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if dstart == self.pos:
                self.error("expected a denominator")
            den = int(self.text[dstart:self.pos])
            if den == 0:
                self.error("zero denominator")
            return Fraction(num, den)
        return num

    def parse_word(self) -> Word:
        self.skip_ws()
        name = self.parse_name()
        if name in ("T", "S", "P") and self.peek() == "(":
            self.pos += 1
            if name == "T":
                parts = self.parse_word_list()
                self.expect(")")
                return Tensor(parts)
            if name == "S":
                if self.peek() == ")":
                    self.pos += 1
                    return Sym(())
                parts = self.parse_word_list()
                self.expect(")")
                return Sym(parts)
            head = self.parse_word()
            self.expect(";")
            tail = self.parse_word()
            self.expect(")")
            if not isinstance(tail, Sym):
                self.error("pair tail must be a symmetric word")
            return Pair(head, tail)
        return Gen(self.lookup(name))

    def parse_word_list(self):
        parts = [self.parse_word()]
        while self.peek() == ",":
            self.pos += 1
            parts.append(self.parse_word())
        return parts

    def parse_name(self) -> str:
        self.skip_ws()
        start = self.pos
        if not (self.pos < len(self.text) and (self.text[self.pos].isalpha() or self.text[self.pos] == "_")):
            self.error("expected a name")
        while self.pos < len(self.text) and (
            self.text[self.pos].isalnum() or self.text[self.pos] in "_."
        ):
            self.pos += 1
        return self.text[start:self.pos]

    def lookup(self, name: str) -> Generator:
        try:
            return self.registry.get(name)
        except KeyError:
            self.error("undeclared generator %r" % name)


def parse_element(text: str, registry) -> Element:
    parser = _Parser(text, registry)
    elem = parser.parse_element()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.error("trailing input")
    return elem
