"""Enveloping codifferentials and the pre-Lie extension of the diamond.

Everything here is driven by a concrete model (wedge, diamond, optional d)
through an EnvelopeContext:

* zinfinity_d   - the codifferential D on tensor words built from the Zinbiel
  wedge: differential at every slot, the binary part at the head, and the
  binary part composed with mu_2 at interior adjacent slots, with prefix
  signs (-1)^{deg of everything to the left}.
* r2            - the extension of the diamond to tensor words: head-diamond
  against shuffled tails plus bracket insertions at every left slot.
* prelie_envelope_q / l_infinity_q - the enveloping codifferentials on the
  generator-level pair and symmetric spaces.
* m_map / r_map / q_total - the lifts of D and of the shifted r2 to pair
  words over tensor words; q_total = m + R is the candidate codifferential.
* coderivation_defect - exact defect of the coderivation law of m, R or Q,
  in the plain form for degree-0 coproducts and in the signed form (cop o Q
  plus (Q x id + id x Q) o cop) for the degree-one cocrochet.
* r2_prelie_defect / r2_derivation_defect - exact defects of the pre-Lie
  relation of r2 and of D deriving r2.

Signs on the pair-word space are deg' signs; signs inside tensor words are
deg signs.  The slot maps return Elements over atoms, so every operation is
the multilinear extension of its atom-level formula.  Every checker returns
its defect as an Element; turning it into a verdict and text is left to the
caller (suites.run_suite).

Images.  r2_words and zinfinity_d_word keep each image they compute in the
context's images dict and return a copy of it, so every map built on them
(r2, D, m, R, Q) computes the image of a given word or pair of words once per
context.  An image is stored only when its computation completes, so a term
cap abort stores nothing.  The suites build one context per instance, so no
image outlives its instance; EnvelopeContext.cache_clear(), which mutant
calls on entry and exit, empties the images of every live context.

Canonical tails.  m_map, r_map, prelie_envelope_q and l_infinity_q check
once per input word that its symmetric factors are in canonical order and
normalize it if not.  A sub-tail of a canonical tail is then a Sym as it
stands, with sign 1, and one new factor joins a sub-tail through sym_insert;
a factor replaced in its slot is first moved to the front, with its Koszul
sign.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .errors import SchemaError, UnsupportedModelError
from .grading import SHIFT1, SHIFT2, rearrangement_sign
from .models import AlgebraModel, FormalModel
from .words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    canonical_term,
    degree,
    is_pair_over_gens,
    is_pair_over_tensors,
    is_sym_of,
    is_tensor_of_gens,
    require,
    shuffle_factors,
    sym_insert,
)


@dataclass(frozen=True, eq=False)
class EnvelopeContext:
    """A model and the images of r2_words and zinfinity_d_word computed over
    it so far, keyed by (x, y) and by the word.  Contexts compare by
    identity; EnvelopeContext.cache_clear() empties the images of every live
    one."""

    model: AlgebraModel
    images: dict = field(init=False, default_factory=dict, repr=False)
    _live = weakref.WeakSet()

    def __post_init__(self):
        EnvelopeContext._live.add(self)

    @classmethod
    def cache_clear(cls):
        for ctx in list(cls._live):
            ctx.images.clear()

    def require_algebra(self):
        if isinstance(self.model, FormalModel):
            raise UnsupportedModelError(
                "this construction needs a model with wedge and diamond"
            )


def _splice(out: Element, prefix, atoms: Element, suffix, coeff):
    """Accumulate coeff * (prefix (x) atom (x) suffix) over a slot element."""
    for gen, c in atoms.items():
        out.add_term(Tensor(prefix + (Gen(gen),) + suffix), coeff * c)


# ---------------------------------------------------------------------------
# the Zinbiel envelope codifferential D on tensor words
# ---------------------------------------------------------------------------

def _q2_wedge(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """Binary part (-1)^{deg a} a wedge b."""
    product = ctx.model.wedge_atoms(a.gen, b.gen)
    if degree(a, SHIFT1) & 1:
        return -product
    return product


def _image(ctx: EnvelopeContext, key, body, *args) -> Element:
    """A copy of ctx's image under key, computed by body(ctx, *args) and
    stored the first time it is asked for; an aborted body stores nothing."""
    images = ctx.images
    image = images.get(key)
    if image is None:
        image = images[key] = body(ctx, *args)
    return image.copy()


def zinfinity_d_word(ctx: EnvelopeContext, word: Tensor) -> Element:
    return _image(ctx, word, _zinfinity_d_word, word)


def _zinfinity_d_word(ctx: EnvelopeContext, word: Tensor) -> Element:
    model = ctx.model
    factors = word.factors
    n = len(factors)
    degs = [degree(f, SHIFT1) for f in factors]
    out = Element()
    # differential at every slot
    if model.has_differential:
        for k in range(n):
            pref = -1 if sum(degs[:k]) & 1 else 1
            _splice(out, factors[:k], model.differential_atom(factors[k].gen),
                    factors[k + 1:], pref)
    # binary part at the head
    if n >= 2:
        _splice(out, (), _q2_wedge(ctx, factors[0], factors[1]), factors[2:], 1)
    # binary part through mu_2 at interior adjacent slots
    for k in range(1, n - 1):
        pref = -1 if sum(degs[:k]) & 1 else 1
        direct = _q2_wedge(ctx, factors[k], factors[k + 1])
        swapped = _q2_wedge(ctx, factors[k + 1], factors[k])
        tau = -1 if (degs[k] & 1 and degs[k + 1] & 1) else 1
        _splice(out, factors[:k], direct, factors[k + 2:], pref)
        _splice(out, factors[:k], swapped, factors[k + 2:], -pref * tau)
    return out


def zinfinity_d(ctx: EnvelopeContext, elem: Element) -> Element:
    ctx.require_algebra()
    require(elem, is_tensor_of_gens, "tensor words over generators")
    return elem.map_words(lambda w: zinfinity_d_word(ctx, w))


# ---------------------------------------------------------------------------
# the pre-Lie extension r2 on tensor words
# ---------------------------------------------------------------------------

def _bracket_atoms(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """[a, b] = a<>b - (-1)^{deg a deg b} b<>a."""
    model = ctx.model
    first = model.diamond_atoms(a.gen, b.gen)
    second = model.diamond_atoms(b.gen, a.gen)
    sign = -1 if (degree(a, SHIFT1) & 1 and degree(b, SHIFT1) & 1) else 1
    return first - second if sign > 0 else first + second


def r2_words(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """The pre-Lie extension on a pair of tensor words; length p+q-1 output."""
    return _image(ctx, (x, y), _r2_words, x, y)


def _r2_words(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    model = ctx.model
    xs, ys = x.factors, y.factors
    p, q = len(xs), len(ys)
    xdeg = [degree(f, SHIFT1) for f in xs]
    ydeg0 = degree(ys[0], SHIFT1)
    out = Element()
    # head part: (x_1 <> y_1) against shuffles of the two tails
    pref = -1 if (sum(xdeg[1:]) & 1 and ydeg0 & 1) else 1
    head = model.diamond_atoms(xs[0].gen, ys[0].gen)
    if not head.is_zero():
        if p + q == 2:
            for g, c in head.items():
                out.add_term(Tensor((Gen(g),)), pref * c)
        else:
            tails = shuffle_factors(xs[1:], ys[1:], SHIFT1)
            for tail_word, ts in tails.items():
                for g, c in head.items():
                    out.add_term(Tensor((Gen(g),) + tail_word.factors),
                                 pref * ts * c)
    # bracket part: [x_k, y_1] inserted at slot k, 2 <= k <= p
    for k in range(2, p + 1):
        pref = -1 if (sum(xdeg[k:]) & 1 and ydeg0 & 1) else 1
        br = _bracket_atoms(ctx, xs[k - 1], ys[0])
        if br.is_zero():
            continue
        prefix = xs[:k - 1]
        rest_left = xs[k:]
        if rest_left or len(ys) > 1:
            tails = shuffle_factors(rest_left, ys[1:], SHIFT1)
            for tail_word, ts in tails.items():
                for g, c in br.items():
                    out.add_term(Tensor(prefix + (Gen(g),) + tail_word.factors),
                                 pref * ts * c)
        else:
            for g, c in br.items():
                out.add_term(Tensor(prefix + (Gen(g),)), pref * c)
    return out


def r2(ctx: EnvelopeContext, x, y) -> Element:
    """Bilinear extension of r2_words to elements."""
    ctx.require_algebra()
    if isinstance(x, Tensor):
        x = Element.single(x)
    if isinstance(y, Tensor):
        y = Element.single(y)
    require(x, is_tensor_of_gens, "tensor words over generators")
    require(y, is_tensor_of_gens, "tensor words over generators")
    return x.map_pairs(y, lambda wx, wy: r2_words(ctx, wx, wy))


def r2_shifted(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """(-1)^{deg' x} r2(x, y), the once-shifted companion."""
    res = r2_words(ctx, x, y)
    if degree(x, SHIFT2) & 1:
        return -res
    return res


def l2(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """Symmetrised shifted extension; graded symmetric in deg'."""
    first = r2_shifted(ctx, x, y)
    second = r2_shifted(ctx, y, x)
    sign = -1 if (degree(x, SHIFT2) & 1 and degree(y, SHIFT2) & 1) else 1
    return first + second.scaled(sign)


# ---------------------------------------------------------------------------
# generator-level envelopes (pair and symmetric words over atoms)
# ---------------------------------------------------------------------------

def prelie_envelope_q(ctx: EnvelopeContext, elem: Element) -> Element:
    """Enveloping codifferential on head-atom pair words; deg' signs."""
    ctx.require_algebra()
    require(elem, is_pair_over_gens, "pair words over generators")
    model = ctx.model
    out = Element()
    for word, coeff in elem.items():
        word, coeff = canonical_term(word, coeff, word.tail.factors, SHIFT2)
        if word is None:
            continue
        head = word.head
        tail = word.tail.factors
        n = len(tail)
        hdeg = degree(head, SHIFT2)
        tdegs = [degree(f, SHIFT2) for f in tail]
        # d at the head
        if model.has_differential:
            for g, c in model.differential_atom(head.gen).items():
                out.add_term(Pair(Gen(g), word.tail), coeff * c)
            head_sign = -1 if hdeg & 1 else 1
            for k in range(n):
                pref = -1 if sum(tdegs[:k]) & 1 else 1
                rest = tail[:k] + tail[k + 1:]
                for g, c in model.differential_atom(tail[k].gen).items():
                    # d tail_k moves from slot k to the front, then sorts in
                    dk = Gen(g)
                    lead = -1 if (dk.degrees[SHIFT2] & 1 and sum(tdegs[:k]) & 1) else 1
                    s, sw = sym_insert(dk, rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(Pair(head, sw),
                                     coeff * head_sign * pref * c * lead * s)
        # head paired with one tail factor
        for j in range(n):
            eps = -1 if (tdegs[j] & 1 and sum(tdegs[:j]) & 1) else 1
            q2 = model.diamond_atoms(head.gen, tail[j].gen)
            sgn = -1 if hdeg & 1 else 1
            # a sub-tail of a canonical tail is canonical
            rest_sym = Sym(tail[:j] + tail[j + 1:])
            for g, c in q2.items():
                out.add_term(Pair(Gen(g), rest_sym), coeff * eps * sgn * c)
        # two tail factors paired, head untouched
        head_sign = -1 if hdeg & 1 else 1
        for a in range(n):
            for b in range(n):
                if a == b:
                    continue
                rest_idx = [i for i in range(n) if i != a and i != b]
                eps = rearrangement_sign(tdegs, [a, b] + rest_idx)
                q2 = model.diamond_atoms(tail[a].gen, tail[b].gen)
                sgn = -1 if tdegs[a] & 1 else 1
                rest = tuple(tail[i] for i in rest_idx)
                for g, c in q2.items():
                    s, sw = sym_insert(Gen(g), rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(Pair(head, sw), coeff * head_sign * eps * sgn * c * s)
    return out


def l_infinity_q(ctx: EnvelopeContext, elem: Element) -> Element:
    """Enveloping codifferential on symmetric atom words for the bracket
    antisymmetrised from the diamond; deg' signs."""
    ctx.require_algebra()
    require(elem, lambda w: is_sym_of(w, lambda f: type(f) is Gen),
            "symmetric words over generators")
    model = ctx.model
    out = Element()
    for word, coeff in elem.items():
        word, coeff = canonical_term(word, coeff, word.factors, SHIFT2)
        if word is None:
            continue
        factors = word.factors
        n = len(factors)
        degs = [degree(f, SHIFT2) for f in factors]
        if model.has_differential:
            for i in range(n):
                eps = -1 if (degs[i] & 1 and sum(degs[:i]) & 1) else 1
                rest = factors[:i] + factors[i + 1:]
                for g, c in model.differential_atom(factors[i].gen).items():
                    s, sw = sym_insert(Gen(g), rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(sw, coeff * eps * c * s)
        for i in range(n):
            for j in range(i + 1, n):
                rest_idx = [k for k in range(n) if k != i and k != j]
                eps = rearrangement_sign(degs, [i, j] + rest_idx)
                br = _bracket_atoms(ctx, factors[i], factors[j])
                sgn = -1 if degs[i] & 1 else 1
                rest = tuple(factors[k] for k in rest_idx)
                for g, c in br.items():
                    s, sw = sym_insert(Gen(g), rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(sw, coeff * eps * sgn * c * s)
    return out


# ---------------------------------------------------------------------------
# the lifted codifferential Q = m + R on pair words over tensor words
# ---------------------------------------------------------------------------

def m_map(ctx: EnvelopeContext, elem: Element) -> Element:
    """Lift of D: D at the head, plus head-signed D at every tail factor."""
    ctx.require_algebra()
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    out = Element()
    for word, coeff in elem.items():
        word, coeff = canonical_term(word, coeff, word.tail.factors, SHIFT2)
        if word is None:
            continue
        head = word.head
        tail = word.tail.factors
        x0p = degree(head, SHIFT2)
        for w, c in zinfinity_d_word(ctx, head).items():
            out.add_term(Pair(w, word.tail), coeff * c)
        if tail:
            pref = -1 if x0p & 1 else 1
            tdegs = [degree(f, SHIFT2) for f in tail]
            for j in range(len(tail)):
                eps = -1 if (tdegs[j] & 1 and sum(tdegs[:j]) & 1) else 1
                rest = tail[:j] + tail[j + 1:]
                for w, c in zinfinity_d_word(ctx, tail[j]).items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(Pair(head, sw), coeff * pref * eps * c * s)
    return out


def r_map(ctx: EnvelopeContext, elem: Element) -> Element:
    """Lift of the shifted r2: head paired against each tail factor, plus the
    symmetrised l2 on pairs of tail factors."""
    ctx.require_algebra()
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    out = Element()
    for word, coeff in elem.items():
        word, coeff = canonical_term(word, coeff, word.tail.factors, SHIFT2)
        if word is None:
            continue
        head = word.head
        tail = word.tail.factors
        n = len(tail)
        x0p = degree(head, SHIFT2)
        tdegs = [degree(f, SHIFT2) for f in tail]
        for i in range(n):
            eps = -1 if (tdegs[i] & 1 and sum(tdegs[:i]) & 1) else 1
            # a sub-tail of a canonical tail is canonical
            rest_sym = Sym(tail[:i] + tail[i + 1:])
            for w, c in r2_shifted(ctx, head, tail[i]).items():
                out.add_term(Pair(w, rest_sym), coeff * eps * c)
        pref = -1 if x0p & 1 else 1
        for i in range(n):
            for j in range(i + 1, n):
                rest_idx = [k for k in range(n) if k != i and k != j]
                eps = rearrangement_sign(tdegs, [i, j] + rest_idx)
                rest = tuple(tail[k] for k in rest_idx)
                for w, c in l2(ctx, tail[i], tail[j]).items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        out.add_term(Pair(head, sw), coeff * pref * eps * c * s)
    return out


def q_total(ctx: EnvelopeContext, elem: Element) -> Element:
    """Q = m + R, the candidate codifferential of both coproducts."""
    return m_map(ctx, elem) + r_map(ctx, elem)


# ---------------------------------------------------------------------------
# exact checkers
# ---------------------------------------------------------------------------

def coderivation_defect(ctx: EnvelopeContext, q, coproduct, cop_degree: int,
                        elem: Element) -> Element:
    """Defect of the coderivation law of the degree-one map q(ctx, -), one
    of m_map, r_map and q_total, for the given coproduct on pair words.

    Degree-0 coproducts use cop(Q e) - (Q x id + id x Q)(cop e); a degree-one
    coproduct is checked in the signed form cop(Q e) + (Q x id + id x Q)(cop e),
    the convention under which the m half of the lift does coderive the
    cocrochet (the unsigned form fails for m, which pins the sign).  The
    (id x Q) leg always carries the Koszul sign of moving a degree-one map
    past the first leg.
    """
    q_word = lambda w: q(ctx, Element.single(w))
    ce = coproduct(elem)
    t1 = ce.map_leg(0, q_word, 1, SHIFT2)
    t2 = ce.map_leg(1, q_word, 1, SHIFT2)
    lhs = coproduct(q(ctx, elem))
    if cop_degree & 1:
        return lhs + t1 + t2
    return lhs - t1 - t2


def r2_prelie_defect(ctx: EnvelopeContext, x: Element, y: Element,
                     z: Element) -> Element:
    """Pre-Lie relation for r2: the associator is deg-symmetric in the last
    two arguments.  A zero argument gives the zero defect."""
    dy = y.homogeneous_degree(SHIFT1)
    dz = z.homogeneous_degree(SHIFT1)
    if (dy is None and not y.is_zero()) or (dz is None and not z.is_zero()):
        raise SchemaError("pre-Lie relation needs homogeneous arguments")
    # with y or z zero both sides vanish whatever the sign
    sign = -1 if (dy or 0) & (dz or 0) & 1 else 1
    lhs = r2(ctx, r2(ctx, x, y), z) - r2(ctx, x, r2(ctx, y, z))
    rhs = r2(ctx, r2(ctx, x, z), y) - r2(ctx, x, r2(ctx, z, y))
    return lhs - rhs.scaled(sign)


def r2_derivation_defect(ctx: EnvelopeContext, x: Element, y: Element) -> Element:
    """D is a derivation of r2: D r2(x,y) = r2(Dx, y) + (-1)^{deg x} r2(x, Dy).
    A zero argument gives the zero defect."""
    dx = x.homogeneous_degree(SHIFT1)
    if dx is None and not x.is_zero():
        raise SchemaError("derivation check needs homogeneous first argument")
    d = lambda e: zinfinity_d(ctx, e)
    # with x zero every term vanishes whatever the sign
    sign = -1 if (dx or 0) & 1 else 1
    return d(r2(ctx, x, y)) - r2(ctx, d(x), y) - r2(ctx, x, d(y)).scaled(sign)
