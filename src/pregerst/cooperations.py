"""The coproducts and exact checkers for every coalgebra law.

Five coproducts live here:

* delta_leibniz - the Leibniz cocrochet on tensor words: cut at every
  position, apply mu to the right part.
* delta_cocom   - the cocommutative coproduct on symmetric words: signed sum
  over proper two-block splits.
* delta_perm    - the permutative coproduct on pair words: the tail splits,
  the head keeps the first block, the second leg is re-expressed as a sum of
  pair words through the symmetric-to-pair embedding.
* kappa_prime   - the symmetrised cocrochet on symmetric words whose factors
  are tensor words: one factor is cut, the two halves distribute over the two
  legs in both orders.
* kappa         - the degree-one Leibniz cocrochet on pair words: the head
  splits in both orders plus a tail term through kappa_prime.

kappa and kappa_prime take a mu_legs switch.  With mu_legs=False (the
default) the cut-off part of a word enters the second leg as a plain word;
with mu_legs=True it enters through the antisymmetrised mu map, matching the
delta cocrochet shape.  Only the default satisfies the shifted coJacobi
identity: the mu cross-terms double some coefficients of the iterated
coproduct on heads of length three and the identity fails exactly by the
fully symmetrised triple-cut terms.  Both variants satisfy cosymmetry and
the three compatibility laws with the permutative coproduct, which do not
iterate kappa and cannot see the difference.

Every coproduct is linear and returns an Element keyed by pairs of words
(leg 1, leg 2).  Coproduct legs that the formulas write as bare symmetric
products are materialised as pair-word elements via the embedding, so a
coproduct on the pair-word space really lands in (that space) tensor (that
space) and laws can be iterated.

Each law is one row of _LAWS: its default view, the words it accepts and
its sides.  law_defect adds every side, a coproduct at one leg of a first
coproduct's result with a scale and its voltes, Koszul-signed in the law's
view, into one element keyed by triples (or pairs) of words: the exact
defect, zero when the law holds.  Cocommutativity and kappa cosymmetry are
sides too: the identity at leg 0 of delta_cocom's or kappa_prime's result,
added swapped and subtracted.

Each coproduct has a body on one word that reads the images it needs
through a table keyed by all they read: a body's through _image, an
embedding, a sym_insert or a mu through words._memo.  There is one table per
public call, or one per law_defect call, so each image is computed once per
distinct argument in the whole law.

delta_perm, kappa_prime_sym and kappa assume that the symmetric words they
split are in canonical order: the parts of a canonical tail are canonical
words as they stand, and a cut-off part joins one through sym_insert.  Each
checks that once per input word and normalizes an input that is not
canonical.  Their Koszul signs come from tables cached per odd-degree
pattern.
"""

from __future__ import annotations

from enum import Enum
from functools import lru_cache
from itertools import combinations

from .errors import SchemaError
from .grading import SHIFT1, SHIFT2, GradingView, rearrangement_sign
from .words import (
    Element,
    Pair,
    Sym,
    Tensor,
    _add_signed,
    _cosplit_into,
    _memo,
    canonical_term,
    degree,
    embed_sym_into_pair,
    is_pair_over_gens,
    is_pair_over_tensors,
    is_sym_of,
    is_tensor_of_gens,
    mu_word,
    sym_insert,
)


class LawId(Enum):
    COASSOC = "coassoc"
    COCOMM = "cocomm"
    LEIBNIZ_COALG = "leibniz_coalg"
    PERM_COALG = "perm_coalg"
    COJACOBI_DELTA = "cojacobi_delta"
    KAPPA_COSYM = "kappa_cosym"
    KAPPA_COJACOBI = "kappa_cojacobi"
    COMPAT_1 = "compat_1"
    COMPAT_2 = "compat_2"
    COMPAT_3 = "compat_3"


def _ordered_partitions(n, nonempty_first=False, nonempty_second=False):
    """Ordered splits (I, J) of range(n) as index tuples, deterministic order."""
    idx = range(n)
    for k in range(n + 1):
        if nonempty_first and k == 0:
            continue
        if nonempty_second and k == n:
            continue
        for left in combinations(idx, k):
            taken = set(left)
            right = tuple(i for i in idx if i not in taken)
            yield left, right


# The sign tables below are built once per odd-degree pattern: parities[i] is
# 1 when factor i has odd view-degree, and a Koszul sign reads nothing else.

@lru_cache(maxsize=None)
def _split_table(parities, nonempty_first=False, nonempty_second=False):
    """(I, J, sign of the order I + J) for each ordered split."""
    return tuple((left, right, rearrangement_sign(parities, left + right))
                 for left, right in _ordered_partitions(
                     len(parities), nonempty_first, nonempty_second))


@lru_cache(maxsize=None)
def _head_cut_table(parities):
    """For kappa's head cut, on the sequence (U, V, tail): (I, J, sign of
    (U, tail_I, V, tail_J), sign of (V, tail_J, U, tail_I)) for each split
    (I, J) of the tail."""
    out = []
    for left, right in _ordered_partitions(len(parities) - 2):
        tail_i = tuple(2 + i for i in left)
        tail_j = tuple(2 + j for j in right)
        out.append((left, right,
                    rearrangement_sign(parities, (0,) + tail_i + (1,) + tail_j),
                    rearrangement_sign(parities, (1,) + tail_j + (0,) + tail_i)))
    return tuple(out)


@lru_cache(maxsize=None)
def _factor_cut_table(parities, s):
    """For kappa_prime's cut of factor s into (U, V), on the factors with X_s
    replaced by U, V (so U sits at s and V at s + 1): (I, J, sign of
    (X_I, U, V, X_J), sign of (X_I, V, U, X_J)) for each split (I, J) of the
    other factors, I and J given as factor indices."""
    n = len(parities) - 1
    others = [i for i in range(n) if i != s]
    out = []
    for left, right in _ordered_partitions(n - 1):
        idx_left = tuple(others[i] for i in left)
        idx_right = tuple(others[j] for j in right)
        pos_left = tuple(i if i < s else i + 1 for i in idx_left)
        pos_right = tuple(j if j < s else j + 1 for j in idx_right)
        out.append((idx_left, idx_right,
                    rearrangement_sign(parities, pos_left + (s, s + 1) + pos_right),
                    rearrangement_sign(parities, pos_left + (s + 1, s) + pos_right)))
    return tuple(out)


# ---------------------------------------------------------------------------
# coproducts
# ---------------------------------------------------------------------------

def _image(images, body, word, view, mu_legs):
    """The terms of body(images, word, view, mu_legs), once per table, stored
    only once complete; only kappa's and kappa_prime's bodies read mu_legs."""
    key = (body, word, view, mu_legs)
    image = images.get(key)
    if image is None:
        image = images[key] = body(images, word, view, mu_legs)
    return image


def _extend(images, body, elem: Element, view, mu_legs=False) -> Element:
    """The linear extension of body over elem, reading images from the table."""
    out = Element()
    for word, coeff in elem.items():
        image = _image(images, body, word, view, mu_legs)
        if image:
            _add_signed(out.terms, image, image.values(), coeff, 0)
    return out


def _delta_leibniz_word(images, word, view, mu_legs):
    if not isinstance(word, Tensor):
        raise SchemaError("delta_leibniz expects tensor words")
    out = Element()
    factors = word.factors
    n = len(factors)
    for k in range(1, n - 1):
        left = Tensor(factors[:k])
        for w, c in _memo(images, mu_word, Tensor(factors[k:]), view).items():
            out.add_term((left, w), c)
    if n > 1:       # the last cut, where mu_1 is the identity
        out.add_term((Tensor(factors[:-1]), Tensor(factors[-1:])), 1)
    return out.terms


def delta_leibniz(elem: Element, view: GradingView = SHIFT1) -> Element:
    """Leibniz cocrochet on tensor words; single letters map to zero."""
    return _extend({}, _delta_leibniz_word, elem, view)


def delta_concat(elem: Element) -> Element:
    """Plain deconcatenation on tensor words (coassociative, sign-free)."""
    out = Element()
    for word, coeff in elem.items():
        if not isinstance(word, Tensor):
            raise SchemaError("delta_concat expects tensor words")
        factors = word.factors
        for k in range(1, len(factors)):
            out.add_term((Tensor(factors[:k]), Tensor(factors[k:])), coeff)
    return out


def cocrochet_lie(elem: Element, view: GradingView = SHIFT1) -> Element:
    """Co-commutator (1 - volte) of the deconcatenation; coantisymmetric and
    satisfies coJacobi because deconcatenation is coassociative."""
    d = delta_concat(elem)
    return d - d.volte(0, view)


def _cocrochet_lie_word(images, word, view, mu_legs):
    return cocrochet_lie(Element.single(word), view).terms


def _delta_cocom_word(images, word, view, mu_legs):
    if not isinstance(word, Sym):
        raise SchemaError("delta_cocom expects symmetric words")
    out = Element()
    factors = word.factors
    parities = tuple(f.degrees[view] & 1 for f in factors)
    for left, right, sign in _split_table(parities, True, True):
        out.add_term((Sym(tuple(map(factors.__getitem__, left))),
                      Sym(tuple(map(factors.__getitem__, right)))), sign)
    return out.terms


def delta_cocom(elem: Element, view: GradingView) -> Element:
    """Cocommutative coproduct on symmetric words: signed proper splits."""
    return _extend({}, _delta_cocom_word, elem, view)


def _delta_perm_word(images, word, view, mu_legs):
    if not isinstance(word, Pair):
        raise SchemaError("delta_perm expects pair words")
    out = Element()
    word, coeff = canonical_term(word, 1, word.tail.factors, view)
    if word is None:
        return out.terms
    factors = word.tail.factors
    parities = tuple(f.degrees[view] & 1 for f in factors)
    for left, right, sign in _split_table(parities, nonempty_second=True):
        leg1 = Pair(word.head, Sym(tuple(map(factors.__getitem__, left))))
        leg2_sym = Sym(tuple(map(factors.__getitem__, right)))
        for w, c in _memo(images, embed_sym_into_pair, leg2_sym, view).terms.items():
            out.add_term((leg1, w), coeff * sign * c)
    return out.terms


def delta_perm(elem: Element, view: GradingView = SHIFT2) -> Element:
    """Permutative coproduct on pair words.

    The tail splits into (I, J) with J nonempty; the head keeps I and the
    second leg is the symmetric word J pushed through the embedding.  A pair
    with an empty tail maps to zero.
    """
    return _extend({}, _delta_perm_word, elem, view)


def _cuts(word: Tensor):
    """Proper splits of a tensor word into (left part, right part)."""
    factors = word.factors
    for cut in range(1, len(factors)):
        yield Tensor(factors[:cut]), Tensor(factors[cut:])


def _cut_leg(vpart: Tensor, mu_legs: bool):
    if mu_legs:
        return mu_word(vpart, SHIFT1).terms
    return {vpart: 1}


def _kappa_prime_sym_word(images, word, view, mu_legs):
    if not (isinstance(word, Sym) and all(isinstance(f, Tensor) for f in word.factors)):
        raise SchemaError("kappa_prime expects symmetric words of tensor factors")
    out = Element()
    word, coeff = canonical_term(word, 1, word.factors, view)
    if word is None:
        return out.terms
    factors = word.factors
    parities = tuple(f.degrees[view] & 1 for f in factors)
    for s in range(len(factors)):
        if len(factors[s].factors) < 2:
            continue
        prefix = -1 if sum(parities[:s]) & 1 else 1
        for upart, vpart in _cuts(factors[s]):
            up = upart.degrees[view] & 1
            cut_sign = -1 if up else 1
            mu_v = _cut_leg(vpart, mu_legs).items()
            # parities with X_s replaced by the two halves
            ext = parities[:s] + (up, vpart.degrees[view] & 1) + parities[s + 1:]
            for idx_left, idx_right, sign_uv, sign_vu in _factor_cut_table(ext, s):
                left_words = tuple(map(factors.__getitem__, idx_left))
                right_words = tuple(map(factors.__getitem__, idx_right))
                base = coeff * prefix * cut_sign
                # (X_I . U) (x) (mu V . X_J)
                sa, lega = _memo(images, sym_insert, upart, left_words, view, False)
                if lega is not None:
                    for w, c in mu_v:
                        sb, legb = _memo(images, sym_insert, w, right_words, view, True)
                        if legb is not None:
                            out.add_term((lega, legb), base * sign_uv * sa * sb * c)
                # (X_I . mu V) (x) (U . X_J)
                sb, legb = _memo(images, sym_insert, upart, right_words, view, True)
                if legb is not None:
                    for w, c in mu_v:
                        sa, lega = _memo(images, sym_insert, w, left_words, view, False)
                        if lega is not None:
                            out.add_term((lega, legb), base * sign_vu * sa * sb * c)
    return out.terms


def kappa_prime_sym(elem: Element, view: GradingView = SHIFT2,
                    mu_legs: bool = False) -> Element:
    """The symmetrised cocrochet, legs kept as raw symmetric words.

    For one factor X_s cut as U (x) V, the two legs are the symmetric
    products (X_I . U, V . X_J) and (X_I . V, U . X_J), each with the
    Koszul sign of the displayed rearrangement in which U, V replace X_s, a
    position prefix (-1)^{sum of deg' before s} and a cut sign (-1)^{deg' U}.
    Factors of tensor length one contribute nothing.
    """
    return _extend({}, _kappa_prime_sym_word, elem, view, mu_legs)


def _kappa_prime_word(images, word, view, mu_legs):
    out = Element()
    for (lega, legb), coeff in _kappa_prime_sym_word(images, word, view, mu_legs).items():
        for wa, ca in _memo(images, embed_sym_into_pair, lega, view).terms.items():
            for wb, cb in _memo(images, embed_sym_into_pair, legb, view).terms.items():
                out.add_term((wa, wb), coeff * ca * cb)
    return out.terms


def kappa_prime(elem: Element, view: GradingView = SHIFT2,
                mu_legs: bool = False) -> Element:
    """kappa_prime with both legs materialised as pair-word elements."""
    return _extend({}, _kappa_prime_word, elem, view, mu_legs)


def _kappa_word(images, word, view, mu_legs):
    if not isinstance(word, Pair) or not isinstance(word.head, Tensor):
        raise SchemaError("kappa expects pair words with tensor heads")
    out = Element()
    word, coeff = canonical_term(word, 1, word.tail.factors, view)
    if word is None:
        return out.terms
    head = word.head
    tail = word.tail.factors
    tparities = tuple(f.degrees[view] & 1 for f in tail)
    for upart, vpart in _cuts(head):
        up = upart.degrees[view] & 1
        cut_sign = -1 if up else 1
        mu_v = _cut_leg(vpart, mu_legs).items()
        ext = (up, vpart.degrees[view] & 1) + tparities
        for left, right, sign_uv, sign_vu in _head_cut_table(ext):
            # sub-tails of a canonical tail are canonical
            left_words = tuple(map(tail.__getitem__, left))
            right_words = tuple(map(tail.__getitem__, right))
            base = coeff * cut_sign
            # (U (x) tail_I) (x) embed(mu V . tail_J)
            leg1 = Pair(upart, Sym(left_words))
            for w, c in mu_v:
                sb, prod = _memo(images, sym_insert, w, right_words, view, True)
                if prod is None:
                    continue
                for pw, pc in _memo(images, embed_sym_into_pair, prod, view).terms.items():
                    out.add_term((leg1, pw), base * sign_uv * sb * c * pc)
            # (mu V (x) tail_J) (x) embed(U . tail_I)
            tail_j = Sym(right_words)
            sa, prod = _memo(images, sym_insert, upart, left_words, view, True)
            if prod is not None:
                emb = _memo(images, embed_sym_into_pair, prod, view).terms.items()
                for w, c in mu_v:
                    leg1 = Pair(w, tail_j)
                    for pw, pc in emb:
                        out.add_term((leg1, pw), base * sign_vu * sa * c * pc)
    if tail:
        tail_sign = -1 if degree(head, view) & 1 else 1
        inner = _image(images, _kappa_prime_sym_word, word.tail, view, mu_legs)
        for (lega, legb), c in inner.items():
            leg1 = Pair(head, lega)
            for pw, pc in _memo(images, embed_sym_into_pair, legb, view).terms.items():
                out.add_term((leg1, pw), coeff * tail_sign * c * pc)
    return out.terms


def kappa(elem: Element, view: GradingView = SHIFT2,
          mu_legs: bool = False) -> Element:
    """Degree-one Leibniz cocrochet on pair words.

    Three parts: the head U (x) V splits with legs (U . tail_I, V . tail_J)
    taken in both orders, plus the tail term head (x) kappa_prime(tail).
    A single-generator head with empty tail maps to zero.
    """
    return _extend({}, _kappa_word, elem, view, mu_legs)


# ---------------------------------------------------------------------------
# law checking
# ---------------------------------------------------------------------------

def _identity_word(images, word, view, mu_legs):
    return {(word,): 1}


# A row is (default view, accepted words: a predicate and what it names, or
# None, sides); a side (first, leg, body, its degree, outs) is body's
# coproduct at leg of first's, added once for each (scale, voltes) of outs.
# The predicates name their functions inside lambdas, so each name is looked
# up when a law runs: a function object captured at import would bypass a
# wrapper bound to the module name later.
_TENSOR_WORDS = (lambda w: is_tensor_of_gens(w), "tensor words over generators")
_TENSOR_HEADS = (lambda w: is_pair_over_tensors(w), "pair words with tensor heads")
_SWAPPED = ((1, (0,)), (-1, ()))     # volte(first) - first
_LAWS = {
    LawId.COASSOC: (SHIFT1, None, (
        (_delta_cocom_word, 0, _delta_cocom_word, 0, ((1, ()),)),
        (_delta_cocom_word, 1, _delta_cocom_word, 0, ((-1, ()),)))),
    LawId.COCOMM: (SHIFT1, None, ((_delta_cocom_word, 0, _identity_word, 0, _SWAPPED),)),
    LawId.LEIBNIZ_COALG: (SHIFT1, _TENSOR_WORDS, (
        (_delta_leibniz_word, 1, _delta_leibniz_word, 0, ((1, ()),)),
        (_delta_leibniz_word, 0, _delta_leibniz_word, 0, ((-1, ()), (1, (1,)))))),
    LawId.PERM_COALG: (SHIFT2, (lambda w: is_pair_over_tensors(w) or is_pair_over_gens(w),
                                "pair words"), (
        (_delta_perm_word, 1, _delta_perm_word, 0, ((1, ()), (-1, (1,)))),)),
    LawId.COJACOBI_DELTA: (SHIFT1, _TENSOR_WORDS, (
        (_cocrochet_lie_word, 0, _cocrochet_lie_word, 0, ((1, ()), (1, (1, 0)), (1, (0, 1)))),)),
    LawId.KAPPA_COSYM: (SHIFT2, (lambda w: is_sym_of(w, is_tensor_of_gens),
                                 "symmetric words of tensor factors"), (
        (_kappa_prime_word, 0, _identity_word, 0, _SWAPPED),)),
    LawId.KAPPA_COJACOBI: (SHIFT2, _TENSOR_HEADS, (
        (_kappa_word, 1, _kappa_word, 1, ((-1, ()),)),
        (_kappa_word, 0, _kappa_word, 1, ((-1, ()), (-1, (1,)))))),
    LawId.COMPAT_1: (SHIFT2, _TENSOR_HEADS, (
        (_delta_perm_word, 1, _kappa_word, 1, ((1, ()), (-1, (1,)))),)),
    LawId.COMPAT_2: (SHIFT2, _TENSOR_HEADS, (
        (_kappa_word, 1, _delta_perm_word, 0, ((1, ()),)),
        (_delta_perm_word, 0, _kappa_word, 1, ((-1, ()), (-1, (1,)))))),
    LawId.COMPAT_3: (SHIFT2, _TENSOR_HEADS, (
        (_kappa_word, 0, _delta_perm_word, 0, ((1, ()),)),
        (_delta_perm_word, 1, _kappa_word, 1, ((-1, ()),)),
        (_delta_perm_word, 0, _kappa_word, 1, ((-1, (1,)),)))),
}


def law_defect(law: LawId, elem: Element, view: GradingView = None) -> Element:
    """Both sides of the law expanded on the given element, subtracted: the
    exact defect, zero when the law holds on this input."""
    default_view, space, sides = _LAWS[law]
    if view is None:
        view = default_view
    if space is not None:
        predicate, what = space
        for w in elem.terms:
            if not predicate(w):
                raise SchemaError("law %s needs %s" % (law.value, what))
    images = {}     # (body, word, view, mu_legs) -> image terms, for this evaluation only
    out = Element()     # all sides are added into its one signed sum
    for first, leg, body, cop_degree, outs in sides:
        _cosplit_into(out.terms, _extend(images, first, elem, view).terms, leg,
                      lambda w: _image(images, body, w, view, False), cop_degree, view, outs)
    return out
