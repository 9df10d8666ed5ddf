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

Element is the one linear-combination type: a finite map key -> coefficient
with no zero coefficients, the empty map being zero.  A key is a word, a tuple
of words (a term of a tensor power, the codomain of every coproduct and
iterated coproduct; its legs are the tuple's entries) or a model atom (a
Generator).  A coefficient is an exact int while it is integral and a Fraction
once a division has made it so; floats never get in, because the scalar entry
points (the mapping constructor, single, scaled) pass anything that is not an
int through Fraction.

Hash-consing.  Words are interned: each constructor looks its children up in
a per-class table (Gen by its generator's (name, degree)) and returns the one
live word that has them, building it only when there is none.  So equal words
are the same object, equality is identity and the hash is the default one,
and dicts keyed by words or by tuples of words hash and compare at C level.
The tables hold weak references, so a word dies when nothing else uses it and
its entry goes with it.  Text output never depends on identity: it sorts by
sort_key.

Sort keys.  sort_key computes a word's key from its children's keys the first
time it is asked and caches it in the word's key slot; a word that is never
sorted or printed never gets one, so building words costs nothing extra.
sym_word and element_to_text read the cached keys.  sym_insert puts one new
factor into factors already in canonical order: it walks to the factor's slot
by key and signs the factors it passes, with no sort.  is_canonical tells
whether sym_word would leave factors as they are; through canonical_term the
coproducts and the envelope maps check their inputs with it and normalize any
that fail, because their shortcuts assume canonical tails.

Degrees.  A word computes its degree in all three views once, when it is
built, and degree() reads it as word.degrees[view] (a GradingView is an int).
A Tensor word sums its legs' deg for the SHIFT1 view, subtracts one more for
SHIFT2 (the word seen one shift deeper) and sums the legs' |x| for BASE; Sym
and Pair just sum their children in each view; a model atom has its
generator's degree.

One signed-sum rule.  Only _add_term (one key) and _add_signed (a batch of
keys with their signs) add into a sum, a plain dict key -> coefficient: a
new key is stored as it comes and checked against the term cap, an old one
is added to and dropped once it sums to zero.  Element.add_term skips a zero
coefficient and calls _add_term; _cosplit_into, the coproduct bodies, the
embedding, the lift and the model kernels call it directly.

mu and the shuffles add coeff * sign at each key of a term through
_add_signed.  A key is a factor tuple placed by a cached itemgetter, or the
int code of an arrangement.  shuffle_terms returns its dict of factor tuples
as it stands, and only shuffle_product makes Tensor words of them.  mu's one
kernel, _mu_sum, takes a sum of factor tuples: mu hands it the factors of
its checked words and mu_shuffle the shuffled tuples themselves, so mu of a
shuffle builds no input word.  A single tuple is placed.  On a sum whose
first tuple has distinct factors, each tuple that rearranges the first is
keyed by its arrangement code, a row cached per code lists the codes of
mu_n's terms on it, and the signed coefficients go into a second dict; any
other tuple is placed into the first, and each dict checks the cap against
both.  Only the terms that survive become Tensor words.  The code tables,
like the sign tables, hold operator data only and are lru_caches, so mutant
clears them.  The embedding's sign rule is written once, in _embed_sign,
which the embedding reads for each head and delta_perm's cached table once
per odd-degree pattern.

Rows.  _relation_defect is the one evaluator of an identity given as a row
of signed sides, compiled once by _relation_row: each side's sign is a
function of the argument degrees, its outermost product goes through the
kernel of its op straight into one dict, and each inner tree is computed
once per call.  models._AXIOMS and envelopes._IDENTITIES are such rows.

Images.  A Context holds one table, images.  Two readers look an image up
there under (fn,) + arguments and, on a miss, compute and store it through
_store: _memo(ctx, fn, *args) for a function of its arguments alone (an
embedding, a sym_insert, a mu) and _image(ctx, body, *args) for a body that
takes the context first (a coproduct body, D, r2, an atom product, a slot
image of the lift).  No key holds a context, nor a model: the one Context
that holds a model, an envelopes.EnvelopeContext, holds exactly one.  _store
keeps an image only once its computation completes: if it raises, the
images it stored on the way are popped, so an abort leaves the table as it
was.  A law evaluation, each public coproduct call and each
coderivation_defect call make a Context of their own; an EnvelopeContext
lives for one suite instance.  A stored image is read, never copied or
changed.

Text.  word_to_text prints a word in the T(...), S(...), P(...; ...) grammar
and is every word's repr.  element_to_text prints 'p/q * word' terms in
canonical order, and parse_element reads them back (grammar in _Parser).
"""

from __future__ import annotations

import re
import weakref
from array import array
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import attrgetter, itemgetter

from .errors import ParseError, SchemaError, TermBudgetExceeded
from .grading import (
    SIGN,
    GradingView,
    Generator,
    Permutation,
    koszul_sign,
    rearrangement_sign,
    shuffles,
)

# Cap on the number of terms any single element may hold; exceeding it raises
# TermBudgetExceeded so a run can abort explicitly instead of thrashing.
_TERM_CAP = 10**6


def set_term_cap(cap: int):
    global _TERM_CAP
    _TERM_CAP = int(cap)


def get_term_cap() -> int:
    return _TERM_CAP


# ---------------------------------------------------------------------------
# words
# ---------------------------------------------------------------------------

class _Ref(weakref.ref):
    """A weak reference to an interned word that remembers its table key."""

    __slots__ = ("key",)


def _intern_table():
    """A table key -> weak reference to the live word with that key, and the
    function that enters a new word.  A word's entry goes when the word dies."""
    table = {}

    def forget(ref):
        # the entry may already name a newer word with the same key
        if table.get(ref.key) is ref:
            del table[ref.key]

    def keep(word, key):
        ref = _Ref(word, forget)
        ref.key = key
        table[key] = ref
        return word
    return table, keep


_GENS, _keep_gen = _intern_table()
_TENSORS, _keep_tensor = _intern_table()
_SYMS, _keep_sym = _intern_table()
_PAIRS, _keep_pair = _intern_table()


def _sum_degrees(factors):
    """Per-view sums of the factors' cached degrees."""
    base = shift1 = shift2 = 0
    for f in factors:
        d = f.degrees
        base += d[0]
        shift1 += d[1]
        shift2 += d[2]
    return base, shift1, shift2


class Word:
    """An interned word: at most one live word has given children, so
    equality is identity and the hash is the default one.  degrees holds the
    word's degree in each view, indexed by the GradingView; key holds its
    sort key once sort_key has computed it, and is unset until then."""

    __slots__ = ("degrees", "key", "__weakref__")

    def __repr__(self):
        return word_to_text(self)


class Gen(Word):
    __slots__ = ("gen",)

    def __new__(cls, gen: Generator):
        ref = _GENS.get(gen)
        word = ref and ref()
        if word is not None:
            return word
        word = object.__new__(cls)
        word.gen = gen
        d = gen.degree
        word.degrees = (d, d - 1, d - 2)
        return _keep_gen(word, gen)


class Tensor(Word):
    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        ref = _TENSORS.get(factors)
        word = ref and ref()
        if word is not None:
            return word
        if not factors:
            raise SchemaError("tensor words need at least one factor")
        base, shift1, _ = _sum_degrees(factors)
        word = object.__new__(cls)
        word.factors = factors
        word.degrees = (base, shift1, shift1 - 1)
        return _keep_tensor(word, factors)


class Sym(Word):
    """Canonically sorted symmetric word.  Build through sym_word() or
    sym_insert()."""

    __slots__ = ("factors",)

    def __new__(cls, factors):
        factors = tuple(factors)
        ref = _SYMS.get(factors)
        word = ref and ref()
        if word is not None:
            return word
        word = object.__new__(cls)
        word.factors = factors
        word.degrees = _sum_degrees(factors)
        return _keep_sym(word, factors)


class Pair(Word):
    __slots__ = ("head", "tail")

    def __new__(cls, head: Word, tail: Sym):
        key = (head, tail)
        ref = _PAIRS.get(key)
        word = ref and ref()
        if word is not None:
            return word
        if not isinstance(head, (Gen, Tensor)):
            raise SchemaError("pair head must be a generator or tensor word")
        if not isinstance(tail, Sym):
            raise SchemaError("pair tail must be a symmetric word")
        word = object.__new__(cls)
        word.head = head
        word.tail = tail
        word.degrees = _sum_degrees(key)
        return _keep_pair(word, key)


def sort_key(word: Word):
    """Total order on words: recursive lexicographic on the variant tag,
    then a generator's name and degree, or the children.  Equal words have
    equal keys, and two generators that share a name but not a degree do not
    tie.  Computed on first use and cached on the word."""
    try:
        return word.key
    except AttributeError:
        pass
    if type(word) is Gen:
        key = (0, word.gen.name, word.gen.degree)
    elif type(word) is Tensor:
        key = (1, tuple(map(sort_key, word.factors)))
    elif type(word) is Sym:
        key = (2, tuple(map(sort_key, word.factors)))
    else:
        key = (3, sort_key(word.head), sort_key(word.tail))
    word.key = key
    return key


def degree(word: Word, view: GradingView) -> int:
    """View-degree of a word (its cached entry), or of a model atom (a
    Generator)."""
    if type(word) is Generator:
        return word.degree - view
    return word.degrees[view]


def sym_word(factors, view: GradingView):
    """Sort the factors canonically; return (sign, Sym) or (0, None) when the
    word is annihilated by a repeated odd factor.  The sign is the Koszul sign
    of the stable sort in the given view."""
    factors = list(factors)
    if not factors:
        return 1, Sym(())
    order = sorted(range(len(factors)), key=list(map(sort_key, factors)).__getitem__)
    degs = [f.degrees[view] for f in factors]
    sign = rearrangement_sign(degs, order)
    sorted_factors = [factors[i] for i in order]
    for a in range(len(sorted_factors) - 1):
        if sorted_factors[a] is sorted_factors[a + 1] and sorted_factors[a].degrees[view] & 1:
            return 0, None
    return sign, Sym(sorted_factors)


def sym_insert(word: Word, rest: tuple, view: GradingView, front: bool):
    """sym_word([word, *rest]) when front, else sym_word([*rest, word]), for
    factors rest already in canonical order: word goes into its slot, found
    by sort key (before equal keys from the front, after them from the back),
    with the sign of passing the factors it crosses."""
    key = sort_key(word)
    n = len(rest)
    i = 0
    if front:
        while i < n and sort_key(rest[i]) < key:
            i += 1
        passed = rest[:i]
    else:
        while i < n and not key < sort_key(rest[i]):
            i += 1
        passed = rest[i:]
    sign = 1
    if word.degrees[view] & 1:
        if (i and rest[i - 1] is word) or (i < n and rest[i] is word):
            return 0, None
        for f in passed:
            if f.degrees[view] & 1:
                sign = -sign
    return sign, Sym(rest[:i] + (word,) + rest[i:])


def is_canonical(factors, view: GradingView) -> bool:
    """Whether sym_word leaves these factors as they are: sort keys never
    decrease and no factor of odd view-degree sits next to itself."""
    for a, b in zip(factors, factors[1:]):
        if sort_key(b) < sort_key(a) or (a is b and a.degrees[view] & 1):
            return False
    return True


def canonical_term(word, coeff, factors, view: GradingView):
    """(word, coeff) when the symmetric factors it splits are in canonical
    order, else the normal form of coeff * word, (None, 0) if that is zero."""
    if is_canonical(factors, view):
        return word, coeff
    sign, word = normalize_word(word, view)
    return word, coeff * sign


EMPTY_SYM = Sym(())


# ---------------------------------------------------------------------------
# elements
# ---------------------------------------------------------------------------

def _exact(scalar):
    """An int stays an int; anything else becomes an exact Fraction."""
    return scalar if type(scalar) is int else Fraction(scalar)


class Element:
    """Finite formal linear combination over exact rationals.

    A key is a word, a tuple of words (a term of a tensor power) or a model
    atom (a Generator).  The leg operations cosplit_leg and volte act
    on tuple keys and reject any key without the leg they touch; + and -
    reject two nonzero elements whose keys differ in kind.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        """The element of a mapping key -> coefficient: each coefficient is
        made exact, zeros are dropped, and keys of different kinds are refused."""
        if not terms:
            self.terms = {}
            return
        self.terms = {k: _exact(c) for k, c in dict(terms).items() if c != 0}
        kinds = {_key_kind(k) for k in self.terms}
        if len(kinds) > 1:
            raise SchemaError("an element's keys must all be of one kind, not %s"
                              % sorted(map(repr, kinds)))

    @staticmethod
    def single(key, coeff=1) -> "Element":
        out = Element()
        coeff = _exact(coeff)
        if coeff != 0:
            out.terms[key] = coeff
        return out

    def is_zero(self) -> bool:
        return not self.terms

    def add_term(self, key, coeff):
        if coeff:
            _add_term(self.terms, key, coeff)

    def __add__(self, other: "Element") -> "Element":
        _check_kinds(self, other)
        out = Element()
        out.terms = dict(self.terms)
        add = out.add_term
        for k, c in other.terms.items():
            add(k, c)
        return out

    def __sub__(self, other: "Element") -> "Element":
        _check_kinds(self, other)
        out = Element()
        out.terms = dict(self.terms)
        add = out.add_term
        for k, c in other.terms.items():
            add(k, -c)
        return out

    def __neg__(self) -> "Element":
        out = Element()
        out.terms = {k: -c for k, c in self.terms.items()}
        return out

    def scaled(self, scalar) -> "Element":
        scalar = _exact(scalar)
        out = Element()
        if scalar != 0:
            out.terms = {k: c * scalar for k, c in self.terms.items()}
        return out

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
        """Linear extension of fn: key -> Element."""
        out = Element()
        add = out.add_term
        for k, c in self.terms.items():
            for k2, c2 in fn(k).terms.items():
                add(k2, c * c2)
        return out

    def map_pairs(self, other: "Element", fn) -> "Element":
        """Extension of fn: (key, key) -> Element, linear in each argument."""
        out = Element()
        add = out.add_term
        right = other.terms.items()
        for k1, c1 in self.terms.items():
            for k2, c2 in right:
                for k3, c3 in fn(k1, k2).terms.items():
                    add(k3, c1 * c2 * c3)
        return out

    def homogeneous_degree(self, view: GradingView):
        """The common view-degree of all keys, or None if mixed or zero."""
        degs = {degree(k, view) for k in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def cosplit_leg(self, leg: int, cop, cop_degree: int, view: GradingView) -> "Element":
        """Apply the coproduct cop (Word -> Element over pairs of words) to one
        leg, one more leg per key, with the Koszul sign of carrying a map of
        degree cop_degree past earlier legs.  cop runs once per distinct leg
        word in this call."""
        ctx = Context()     # cop's images of the leg words, for this call only
        out = Element()
        _cosplit_into(out.terms, self.terms, leg, lambda w: _memo(ctx, cop, w).terms,
                      cop_degree, view, ((1, ()),))
        return out

    def volte(self, leg: int, view: GradingView) -> "Element":
        """Graded swap of legs (leg, leg+1): sign (-1)^{deg(a) deg(b)}."""
        out = Element()
        for legs, c in self.terms.items():
            _require_legs(legs, leg + 2)
            a, b = legs[leg], legs[leg + 1]
            if degree(a, view) & 1 and degree(b, view) & 1:
                c = -c
            out.add_term(legs[:leg] + (b, a) + legs[leg + 2:], c)
        return out


class Context:
    """What an evaluation has computed so far: images, the table of every
    image read through _memo and _image.  Contexts compare by identity."""

    __slots__ = ("images", "__weakref__")

    def __init__(self):
        self.images = {}


def _memo(ctx: Context, fn, *args):
    """fn(*args), once per context: ctx's stored image, to be read only."""
    key = (fn,) + args
    found = ctx.images.get(key)
    if found is None:
        found = _store(ctx.images, key, fn, args)
    return found


def _image(ctx: Context, body, *args):
    """body(ctx, *args), once per context: ctx's stored image, to be read
    only; the key (body,) + args leaves the context out."""
    key = (body,) + args
    found = ctx.images.get(key)
    if found is None:
        found = _store(ctx.images, key, body, (ctx,) + args)
    return found


def _store(table, key, fn, args):
    """Store fn(*args) in table under key and return it.  If fn raises, the
    entries it added to the table on the way (images it read and stored
    first) are popped, newest first, so an aborted fn leaves the table
    exactly as it was."""
    size = len(table)
    try:
        found = fn(*args)
    except BaseException:
        while len(table) > size:
            table.popitem()
        raise
    table[key] = found
    return found


def _cosplit_into(acc: dict, terms: dict, leg: int, image, cop_degree: int,
                  view: GradingView, outs):
    """The one leg-expansion loop: for each key of terms, each split of
    image(its leg word) replaces that leg, signed for carrying a map of
    degree cop_degree past the earlier legs, and goes into the signed sum
    acc once for each (scale, voltes) of outs, times scale and with each
    volte v, the graded swap of word legs (v, v + 1), applied in turn,
    through _add_term."""
    for legs, c in terms.items():
        _require_legs(legs, leg + 1)
        if cop_degree & 1 and sum(degree(w, view) for w in legs[:leg]) & 1:
            c = -c
        before, after = legs[:leg], legs[leg + 1:]
        split_terms = image(legs[leg]).items()
        for scale, voltes in outs:
            c1 = c * scale
            for split, c2 in split_terms:
                key, c2 = before + split + after, c1 * c2
                for v in voltes:
                    a, b = key[v], key[v + 1]
                    if a.degrees[view] & 1 and b.degrees[view] & 1:
                        c2 = -c2
                    key = key[:v] + (b, a) + key[v + 2:]
                _add_term(acc, key, c2)


def _add_term(acc: dict, key, c):
    """Add a nonzero c at key into the signed sum acc: a zero sum is dropped
    as it appears and the term cap is checked on each new key."""
    old = acc.get(key)
    if old is None:
        acc[key] = c
        if len(acc) > _TERM_CAP:
            raise TermBudgetExceeded(len(acc), _TERM_CAP)
    else:
        c += old
        if c:
            acc[key] = c
        else:
            del acc[key]


def _relation_row(arity: int, sides, graded=None):
    """An identity as a row of signed sides (exponent, tree), compiled once
    into (arity, graded, sides, steps, temporaries).  A tree is an argument's
    index or (op, subtree, ...), an exponent a function of the degrees of
    the arguments graded lists (by default all).  Each inner tree is one
    temporary, and sides that differ only in the subtree at one position are
    one product on the signed sum of those subtrees, for every op is
    multilinear.  A step (target, op, operand slots, sides) adds op of its
    operands into the target slot, signed by the parity of the listed sides'
    exponents; op None adds its operand.  The slots are the arguments, the
    result, then the temporaries."""
    keys = [[(tree[0], i, tree[1:i + 1] + tree[i + 2:]) for i in range(len(tree) - 1)]
            for _, tree in sides]
    counts = Counter(key for side_keys in keys for key in side_keys)
    groups = {}     # each side at the position the most sides share
    for n, side_keys in enumerate(keys):
        groups.setdefault(max(side_keys, key=counts.__getitem__), []).append(n)
    summed = Counter(sides[n][1][1 + key[1]] for key, members in groups.items()
                     if len(members) > 1 for n in members)
    steps, slots = [], {}

    def slot(tree):
        if type(tree) is not int and tree not in slots:
            operands = tuple(map(slot, tree[1:]))
            slots[tree] = arity + 1 + len(slots)
            steps.append((slots[tree], tree[0], operands, ()))
        return slots.get(tree, tree)

    for (op, position, others), members in groups.items():
        trees = [sides[n][1][1 + position] for n in members]
        if len(members) == 1:
            varying = slot(trees[0])
        else:   # a tree in one sum only goes straight into it
            varying = slots["+", members[0]] = arity + 1 + len(slots)
            for n, tree in zip(members, trees):
                alone = type(tree) is not int and summed[tree] == 1
                steps.append((varying, tree[0] if alone else None,
                              tuple(map(slot, tree[1:])) if alone else (slot(tree),),
                              (n, members[0])))
        operands = list(map(slot, others))
        operands.insert(position, varying)
        steps.append((arity, op, tuple(operands), members[:1]))
    return arity, range(arity) if graded is None else graded, sides, tuple(steps), len(slots)


def _relation_defect(row, ops, args, view: GradingView, what: str) -> Element:
    """The one evaluator of a row (_relation_row) on the elements args: the
    sum of its sides, each signed (-1)^{exponent(*degrees)} with the degrees
    in the view.  ops[op] is a kernel op_into(acc, operand, ..., coeff) that
    adds coeff times op of its operands, mappings key -> coefficient, into
    the dict acc, checking the term cap on each new key; the outermost
    product of every side goes straight into the one sum.  A graded argument
    that is not homogeneous is refused; a zero argument gives zero."""
    arity, graded, sides, steps, temporaries = row
    if len(args) != arity:
        raise ValueError("%s takes %d arguments" % (what, arity))
    degrees = [0] * arity
    for i in graded:
        degrees[i] = args[i].homogeneous_degree(view)
        if degrees[i] is None and args[i].terms:
            raise SchemaError("%s needs homogeneous arguments" % what)
    out = Element()
    if not all(a.terms for a in args):
        return out
    signs = [exponent(*degrees) & 1 for exponent, _ in sides]
    slots = [a.terms for a in args]
    slots.append(out.terms)
    for _ in range(temporaries):
        slots.append({})
    for target, op, operands, parity in steps:
        odd = 0
        for n in parity:
            odd ^= signs[n]
        coeff = SIGN[odd]
        if op is None:      # a slot added as it is
            operand = slots[operands[0]]
            _add_signed(slots[target], operand, operand.values(), coeff, 0)
        elif len(operands) == 2:
            ops[op](slots[target], slots[operands[0]], slots[operands[1]], coeff)
        else:
            ops[op](slots[target], *map(slots.__getitem__, operands), coeff)
    return out


def _key_kind(key):
    """'word', 'atom' or, for a tuple key, its number of legs."""
    if type(key) is tuple:
        return len(key)
    return "atom" if type(key) is Generator else "word"


def _check_kinds(a: Element, b: Element):
    """Refuse a sum of two nonzero elements whose keys differ in kind; one
    key of each stands for all of its element's keys."""
    if a.terms and b.terms:
        ka = _key_kind(next(iter(a.terms)))
        kb = _key_kind(next(iter(b.terms)))
        if ka != kb:
            raise SchemaError("cannot add elements with keys of different kinds: %r and %r"
                              % (ka, kb))


def _require_legs(key, count: int):
    if type(key) is not tuple or len(key) < count:
        raise SchemaError("key %r has no leg %d" % (key, count - 1))


# ---------------------------------------------------------------------------
# signed operations
# ---------------------------------------------------------------------------

def _placer(perm: Permutation):
    """The map that puts factor i of a factor tuple in slot perm(i): an
    itemgetter of, for each slot, the position of the factor landing there."""
    if len(perm) == 1:
        return tuple
    return itemgetter(*[i - 1 for i in perm.inverse().images])


def _odd_mask(factors, view: GradingView) -> int:
    """Odd-degree pattern of a word: bit i is set when factor i is odd."""
    mask = 0
    for f in reversed(factors):
        mask = mask << 1 | f.degrees[view] & 1
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


def _add_signed(acc: dict, keys, signs, coeff, live: int):
    """Add coeff * sign at each key to acc, a map from keys to coefficients,
    pairing keys and signs in order; a key is a placed factor tuple or an
    arrangement code.  As in _add_term, a zero is dropped as it appears and
    the term cap is checked on each new key, against acc's terms plus live
    terms held elsewhere."""
    if not coeff:
        return
    get = acc.get
    values = signs if coeff == 1 and type(coeff) is int else [coeff * sign for sign in signs]
    check = live + len(acc) + len(values) > _TERM_CAP     # else no key can reach the cap
    for key, c in zip(keys, values):
        old = get(key)
        if old is None:
            acc[key] = c
            if check and live + len(acc) > _TERM_CAP:
                raise TermBudgetExceeded(live + len(acc), _TERM_CAP)
        else:
            c += old
            if c:
                acc[key] = c
            else:
                del acc[key]


def _tensors(acc: dict) -> Element:
    """The element whose terms are the tensor words of acc's factor tuples."""
    out = Element()
    terms = out.terms
    for factors, c in acc.items():     # a loop, not a comprehension: most accs are tiny
        terms[Tensor(factors)] = c
    return out


def shuffle_terms(left, right, view: GradingView) -> dict:
    """Signed sum over (p,q)-shuffles of the concatenated factor tuples, as a
    map from each surviving shuffled factor tuple to its sign.  An empty side
    gives the one unshuffled tuple, {left + right: 1}; with both sides empty
    that is the empty tuple.  The map is returned as it stands: mu_shuffle
    and the pre-Lie extension r2 read the tuples, and only shuffle_product
    makes Tensor words of them, so mu-shuffle-lemma builds no word on
    either side of mu."""
    left, right = tuple(left), tuple(right)
    factors = left + right
    if not (left and right):
        return {factors: 1}
    p, q = len(left), len(right)
    mask = _odd_mask(factors, view)
    acc = {}
    _add_signed(acc, [place(factors) for place in _shuffle_placers(p, q)],
                _shuffle_signs(p, q, mask), 1, 0)
    return acc


def shuffle_product(left: Tensor, right: Tensor, view: GradingView) -> Element:
    if not isinstance(left, Tensor) or not isinstance(right, Tensor):
        raise SchemaError("shuffle product expects tensor words")
    return _tensors(shuffle_terms(left.factors, right.factors, view))


@lru_cache(maxsize=None)
def _mu_table(n: int):
    """mu_n as a list of (Permutation, +-1); Koszul signs are applied per word.

    mu_1 = id and mu_{n+1} = mu_n x id - (mu_n x id) o (inverse cycle), the
    cycle being (1 ... n+1).
    """
    if n == 1:
        return ((Permutation.identity(1), 1),)
    prev = _mu_table(n - 1)
    extended = [(Permutation(p.images + (n,)), c) for p, c in prev]
    cycle_inv = Permutation((n,) + tuple(range(1, n)))
    out = list(extended)
    for p, c in extended:
        out.append((p.compose(cycle_inv), -c))
    return tuple(out)


@lru_cache(maxsize=None)
def _mu_placers(n: int):
    return tuple(_placer(perm) for perm, _ in _mu_table(n))


@lru_cache(maxsize=None)
def _mu_signs(n: int, mask: int):
    """Sign of each mu_n term, table coefficient times Koszul sign, in
    _mu_placers order, for the words whose odd-degree pattern is mask."""
    degs = _mask_degrees(n, mask)
    return tuple(c * koszul_sign(degs, perm) for perm, c in _mu_table(n))


@lru_cache(maxsize=None)
def _arrangements(n: int):
    """The arrangements of n distinct factors met so far, each the bytes of
    the base positions of the factors slot by slot: a map from arrangement to
    int code, and the list of arrangements by code."""
    return {}, []


def _arrangement_code(n: int, arrangement: bytes) -> int:
    codes, arrangements = _arrangements(n)
    code = codes.get(arrangement)
    if code is None:
        code = codes[arrangement] = len(arrangements)
        arrangements.append(arrangement)
    return code


@lru_cache(maxsize=None)
def _mu_row(n: int, code: int):
    """The codes of mu_n's terms on the arrangement with this code, in
    _mu_signs order, as a compact int array."""
    arrangement = _arrangements(n)[1][code]
    return array("H" if n <= 8 else "L",
                 [_arrangement_code(n, bytes(place(arrangement))) for place in _mu_placers(n)])


def mu_word(word: Tensor, view: GradingView) -> Element:
    """Apply mu_n for n = word length; linear combination of same-length words."""
    return mu(len(word.factors), word, view)


def mu(n: int, elem, view: GradingView) -> Element:
    """mu_n on a tensor word or element whose words all have length n.  Every
    key is checked here, before mu_n's tables are built, and _mu_sum works
    on the words' factor tuples.  mu_shuffle hands _mu_sum a shuffle's
    factor tuples directly, so mu-shuffle-lemma builds no word on either
    side: none for a shuffled term and, as every term cancels, none for the
    output."""
    if n < 1:
        raise ValueError("mu arity must be >= 1")
    terms = {}      # factor tuple -> coefficient
    for w, c in ({elem: 1} if isinstance(elem, Word) else elem.terms).items():
        if type(w) is not Tensor or len(w.factors) != n:
            raise SchemaError("mu_%d needs tensor words of length %d" % (n, n))
        terms[w.factors] = c
    return _mu_sum(n, terms, view)


def mu_shuffle(left: Tensor, right: Tensor, view: GradingView) -> Element:
    """mu_{p+q} of the shuffle product of two tensor words, checked here as
    words once.  _mu_sum reads the factor tuples of shuffle_terms, so no
    word is built for a shuffled term, and only a term of mu that survives
    becomes a word."""
    if not isinstance(left, Tensor) or not isinstance(right, Tensor):
        raise SchemaError("shuffle product expects tensor words")
    return _mu_sum(len(left.factors) + len(right.factors),
                   shuffle_terms(left.factors, right.factors, view), view)


def _mu_sum(n: int, terms: dict, view: GradingView) -> Element:
    """mu_n on a sum of factor tuples of length n, a map from factor tuple to
    coefficient, whose keys the caller has checked.  A single tuple is
    placed; on a sum whose first tuple, base, has distinct factors, a tuple
    that rearranges base is added by arrangement code, and only the codes
    that survive are placed onto base."""
    acc = {}        # factor tuple -> coefficient
    coded = {}      # arrangement code -> coefficient
    slot = None     # base factor -> its position, when the sum is coded
    if len(terms) > 1:
        base = next(iter(terms))
        if len(set(base)) == n:
            slot = {f: i for i, f in enumerate(base)}
            codes = _arrangements(n)[0]
            absent = repeat(n)      # the position given to a factor that base lacks
    for factors, c in terms.items():
        signs = _mu_signs(n, _odd_mask(factors, view))
        if slot is not None:
            arrangement = bytes(map(slot.get, factors, absent))
            code = codes.get(arrangement)
            if code is None and n not in arrangement and len(set(arrangement)) == n:
                code = _arrangement_code(n, arrangement)
            if code is not None:
                _add_signed(coded, _mu_row(n, code), signs, c, len(acc))
                continue
        _add_signed(acc, [place(factors) for place in _mu_placers(n)], signs, c, len(coded))
    out = _tensors(acc)
    if coded:
        arrangements = _arrangements(n)[1]
        for code, c in coded.items():
            out.terms[Tensor([base[i] for i in arrangements[code]])] = c
    return out


def sym_product(a: Element, b: Element, view: GradingView) -> Element:
    """Concatenate-then-normalize product on symmetric words; linear in each
    argument and graded-commutative in the view grading."""
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


def _embed_sign(odd, moved):
    """The embedding's sign for a head of parity odd behind factors of total
    parity moved: the Koszul sign of moving it to the front.  The embedding
    and delta_perm's table both read it."""
    return SIGN[odd & moved]


def embed_sym_into_pair(word: Sym, view: GradingView) -> Element:
    """Identify a symmetric word with a sum of pair words: each factor takes a
    turn as the head, signed by moving it to the front; the remaining factors
    stay as the tail.  One term per factor before normalization."""
    factors = word.factors
    if not factors:
        raise SchemaError("cannot embed the empty symmetric word")
    moved = 0      # parity of the odd factors before the head
    out = Element()
    terms = out.terms
    for h, f in enumerate(factors):
        odd = f.degrees[view] & 1
        _add_term(terms, Pair(f, Sym(factors[:h] + factors[h + 1:])), _embed_sign(odd, moved))
        moved ^= odd
    return out


def embed_element(elem: Element, view: GradingView) -> Element:
    """Linear extension of embed_sym_into_pair; a word that is not
    symmetric is refused."""
    require(elem, lambda w: type(w) is Sym, "symmetric words")
    return elem.map_words(lambda w: embed_sym_into_pair(w, view))


# ---------------------------------------------------------------------------
# normalization of raw input
# ---------------------------------------------------------------------------

def normalize_word(word: Word, view: GradingView):
    """Recursively canonicalize one word; returns (sign, word or None)."""
    if type(word) is Gen:
        return 1, word
    if type(word) is Pair:
        s1, head = normalize_word(word.head, view)
        if head is None:
            return 0, None
        s2, tail = normalize_word(word.tail, view)
        if tail is None:
            return 0, None
        return s1 * s2, Pair(head, tail)
    sign = 1
    parts = []
    for f in word.factors:
        s, w = normalize_word(f, view)
        if w is None:
            return 0, None
        sign *= s
        parts.append(w)
    if type(word) is Tensor:
        return sign, Tensor(parts)
    s, w = sym_word(parts, view)    # (0, None) when an odd factor repeats
    return sign * s, w


def normalize(raw: Element, view: GradingView) -> Element:
    """Canonicalize every word (sorting symmetric factors with the Koszul sign
    in the given view, dropping odd squares), drop zero coefficients.
    Idempotent."""
    schema = {_schema_tag(w) for w in raw.terms}
    if len(schema) > 1:
        raise SchemaError("mixed word schemas in one element: %s" % sorted(schema))
    out = Element()
    for w, c in raw.items():
        sign, word = normalize_word(w, view)
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
    """The word in the element grammar; also every word's repr."""
    if type(word) is Gen:
        return word.gen.name
    if type(word) is Pair:
        return "P(%s; %s)" % (word_to_text(word.head), word_to_text(word.tail))
    tag = "T" if type(word) is Tensor else "S"
    return "%s(%s)" % (tag, ",".join(map(word_to_text, word.factors)))


def _legs_order(legs):
    return tuple(map(sort_key, legs))


def _legs_text(legs) -> str:
    return " # ".join(map(word_to_text, legs))


def element_to_text(elem: Element) -> str:
    """Canonical text of an element: its terms as 'coeff * key' joined by
    ' + '.  Word keys sort by sort_key; tuple keys print their legs joined by
    ' # ' and sort by their legs' sort keys; atom keys print and sort by name."""
    if elem.is_zero():
        return "0"
    terms = elem.terms
    first = next(iter(terms))
    if type(first) is tuple:
        order, text = _legs_order, _legs_text
    elif type(first) is Generator:
        order = text = attrgetter("name")
    else:
        order, text = sort_key, word_to_text
    parts = []
    for k in sorted(terms, key=order):
        c = terms[k]
        parts.append("%d/%d * %s" % (c.numerator, c.denominator, text(k)))
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_SPACE = re.compile(r"[ \t\n]*")
_DIGITS = re.compile(r"\d*")
_NAME = re.compile(r"[\w.]*")


def _name_at(text: str, pos: int) -> str:
    """The NAME that starts at pos, or '' where none does."""
    name = _NAME.match(text, pos).group()
    return name if name[:1].isalpha() or name[:1] == "_" else ""


class _Parser:
    """Recursive-descent scanner for the element grammar:

        element  := term ('+' term)* | '0'
        term     := rational '*' word
        rational := '-'? DIGITS ('/' DIGITS)?
        word     := NAME | 'T(' word (',' word)* ')'
                         | 'S(' word (',' word)* ')' | 'S()'
                         | 'P(' word ';' word ')'

    A NAME is a declared generator: a letter or '_', then letters, digits,
    '_' or '.'.  p/q gives Fraction(p, q) and a bare integer an int.  Space,
    tab and newline may stand between tokens, except after '-' or '/'.
    """

    def __init__(self, text: str, registry):
        self.text, self.pos, self.registry = text, 0, registry

    def peek(self) -> str:
        """Skip whitespace; the next character, or '' at the end."""
        self.pos = _SPACE.match(self.text, self.pos).end()
        return self.text[self.pos:self.pos + 1]

    def take(self, ch) -> bool:
        """Skip whitespace and consume ch if it comes next."""
        if self.peek() != ch:
            return False
        self.pos += 1
        return True

    def expect(self, ch):
        if not self.take(ch):
            raise ParseError("expected %r" % ch, self.pos)

    def digits(self, message) -> int:
        """The digits right at pos, with no whitespace skipped."""
        run = _DIGITS.match(self.text, self.pos).group()
        if not run:
            raise ParseError(message, self.pos)
        self.pos += len(run)
        return int(run)

    def parse_element(self) -> Element:
        out = Element()
        if self.peek() == "0" and not self.text[self.pos + 1:].strip(" \t\n"):
            return out
        while True:
            coeff = self.parse_rational()
            self.expect("*")
            out.add_term(self.parse_word(), coeff)
            if not self.peek():
                return out
            self.expect("+")

    def parse_rational(self):
        sign = -1 if self.take("-") else 1
        num = sign * self.digits("expected a rational coefficient")
        if not self.take("/"):
            return num
        den = self.digits("expected a denominator")
        if den == 0:
            raise ParseError("zero denominator", self.pos)
        return Fraction(num, den)

    def parse_word(self) -> Word:
        self.peek()
        name = _name_at(self.text, self.pos)
        if not name:
            raise ParseError("expected a name", self.pos)
        self.pos += len(name)
        if name in ("T", "S", "P") and self.take("("):
            if name == "P":
                head = self.parse_word()
                self.expect(";")
                tail = self.parse_word()
                self.expect(")")
                if not isinstance(tail, Sym):
                    raise ParseError("pair tail must be a symmetric word", self.pos)
                return Pair(head, tail)
            if name == "S" and self.take(")"):
                return EMPTY_SYM
            parts = [self.parse_word()]
            while self.take(","):
                parts.append(self.parse_word())
            self.expect(")")
            return Tensor(parts) if name == "T" else Sym(parts)
        try:
            return Gen(self.registry.get(name))
        except KeyError:
            raise ParseError("undeclared generator %r" % name, self.pos)


def parse_element(text: str, registry) -> Element:
    return _Parser(text, registry).parse_element()
