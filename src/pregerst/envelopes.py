"""Enveloping codifferentials and the pre-Lie extension of the diamond.

Everything here is driven by a model (wedge, diamond, optional d) through
an EnvelopeContext: the forms model, or the free operations of FormalModel.

One lift.  A coderivation of a cofree coalgebra is fixed by its
corestriction, one map on a single factor and one on two (Loday-Vallette,
Algebraic Operads, 6.3).  _lift(ctx, elem, unary, binary) builds it on pair
words (head; tail) and on symmetric words (tail only), with deg' signs:
(1) unary at the head; (2) unary at each tail factor, moved to the front,
signed by the head, sorted back in; (3) binary(head, t_j) as the new head;
(4) binary(t_i, t_j) + (-1)^{deg' t_i deg' t_j} binary(t_j, t_i) over
i < j, signed by the head, sorted into the rest of the tail.  m_map is the
lift of D, r_map of the shifted r2, q_total = m + R of both in one pass, and
prelie_envelope_q and l_infinity_q (pair and symmetric words over atoms)
of d and the shifted diamond (-1)^{deg' a} a<>b, whose symmetrisation is
(-1)^{deg' a} [a, b].

The slot maps on tensor words are zinfinity_d, the codifferential D built
from the Zinbiel wedge (differential at every slot, the binary part at the
head and, through mu_2, at interior adjacent slots, with prefix signs
(-1)^{deg of everything to the left}), and r2, the extension of the diamond
(at slot k, x_1<>y_1 for k = 1 or [x_k, y_1] after it, against the shuffles
of x[k:] with y[1:]).  The checkers: coderivation_defect (m, R or Q, plain
for degree-0 coproducts, signed, cop o Q + (Q x id + id x Q) o cop, for the
degree-one cocrochet), r2_prelie_defect and r2_derivation_defect.

Signs on the pair-word space are deg' signs; signs inside tensor words are
deg signs.  The model's operations return Elements over atoms, so every
operation is the multilinear extension of its atom-level formula.  Every
checker returns its defect as an Element; turning it into a verdict and
text is left to the caller (suites.run_suite).

Images.  The images of D on a tensor word and of r2 on a pair of them are
kept in the context's images dict through words._memo, keyed by (body, model,
arguments), and read, never copied or changed, by every map built on them (r2,
D, m, R, Q): each is computed once per context.  A key holds the model, never
the context, so a context is freed as soon as its last reference goes.  An
image is stored only when its computation completes, so a term cap abort
stores nothing.  The suites build one context per instance, so no image
outlives its instance; EnvelopeContext.cache_clear(), which mutant calls on
entry and exit, empties the images of every live context.

Canonical tails.  _lift checks once per input word that its symmetric
factors are in canonical order and normalizes it if not.  A sub-tail of a
canonical tail is then a Sym as it stands, with sign 1, and one new factor
joins a sub-tail through sym_insert; a factor replaced in its slot is first
moved to the front, with its Koszul sign.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

from .errors import SchemaError
from .grading import SHIFT1, SHIFT2
from .models import AlgebraModel
from .words import (
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    _cosplit_into,
    _memo,
    canonical_term,
    degree,
    is_pair_over_gens,
    is_pair_over_tensors,
    is_sym_of,
    is_tensor_of_gens,
    require,
    shuffle_terms,
    sym_insert,
)


@dataclass(frozen=True, eq=False)
class EnvelopeContext:
    """A model and the images of D and r2 computed over it so far, keyed by
    (body, model, arguments).  Contexts compare by identity;
    EnvelopeContext.cache_clear() empties the images of every live one."""

    model: AlgebraModel
    images: dict = field(init=False, default_factory=dict, repr=False)
    _live = weakref.WeakSet()

    def __post_init__(self):
        EnvelopeContext._live.add(self)

    @classmethod
    def cache_clear(cls):
        for ctx in list(cls._live):
            ctx.images.clear()


def _splice(out: Element, prefix, atoms: Element, suffix, coeff):
    """Accumulate coeff * (prefix (x) atom (x) suffix) over a slot element."""
    for gen, c in atoms.items():
        out.add_term(Tensor(prefix + (Gen(gen),) + suffix), coeff * c)


# ---------------------------------------------------------------------------
# the Zinbiel envelope codifferential D on tensor words
# ---------------------------------------------------------------------------

def _q2_wedge(model: AlgebraModel, a: Gen, b: Gen) -> Element:
    """Binary part (-1)^{deg a} a wedge b."""
    product = model.wedge_atoms(a.gen, b.gen)
    if degree(a, SHIFT1) & 1:
        return -product
    return product


def _d_image(ctx: EnvelopeContext, word: Tensor) -> Element:
    """D on one tensor word: ctx's stored image, to be read only."""
    return _memo(ctx.images, _zinfinity_d_word, ctx.model, word)


def _zinfinity_d_word(model: AlgebraModel, word: Tensor) -> Element:
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
        _splice(out, (), _q2_wedge(model, factors[0], factors[1]), factors[2:], 1)
    # binary part through mu_2 at interior adjacent slots
    for k in range(1, n - 1):
        pref = -1 if sum(degs[:k]) & 1 else 1
        direct = _q2_wedge(model, factors[k], factors[k + 1])
        swapped = _q2_wedge(model, factors[k + 1], factors[k])
        tau = -1 if (degs[k] & 1 and degs[k + 1] & 1) else 1
        _splice(out, factors[:k], direct, factors[k + 2:], pref)
        _splice(out, factors[:k], swapped, factors[k + 2:], -pref * tau)
    return out


def zinfinity_d(ctx: EnvelopeContext, elem: Element) -> Element:
    require(elem, is_tensor_of_gens, "tensor words over generators")
    return elem.map_words(lambda w: _d_image(ctx, w))


# ---------------------------------------------------------------------------
# the pre-Lie extension r2 on tensor words
# ---------------------------------------------------------------------------

def _bracket_atoms(model: AlgebraModel, a: Gen, b: Gen) -> Element:
    """[a, b] = a<>b - (-1)^{deg a deg b} b<>a."""
    first = model.diamond_atoms(a.gen, b.gen)
    second = model.diamond_atoms(b.gen, a.gen)
    sign = -1 if (degree(a, SHIFT1) & 1 and degree(b, SHIFT1) & 1) else 1
    return first - second if sign > 0 else first + second


def _r2_image(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """r2 on a pair of tensor words: ctx's stored image, to be read only."""
    return _memo(ctx.images, _r2_words, ctx.model, x, y)


def _r2_words(model: AlgebraModel, x: Tensor, y: Tensor) -> Element:
    """The pre-Lie extension on a pair of tensor words; length p+q-1 output."""
    xs, ys = x.factors, y.factors
    xdeg = [degree(f, SHIFT1) for f in xs]
    y1 = ys[0]
    y1_odd = degree(y1, SHIFT1) & 1
    out = Element()
    # slot k: x_1 <> y_1 at k = 1 and [x_k, y_1] after it, each against the
    # shuffles of x[k:] with y[1:]
    for k in range(1, len(xs) + 1):
        if k == 1:
            atoms = model.diamond_atoms(xs[0].gen, y1.gen)
        else:
            atoms = _bracket_atoms(model, xs[k - 1], y1)
        if atoms.is_zero():
            continue
        pref = -1 if (y1_odd and sum(xdeg[k:]) & 1) else 1
        prefix = xs[:k - 1]
        for tail, ts in shuffle_terms(xs[k:], ys[1:], SHIFT1).items():
            for g, c in atoms.items():
                out.add_term(Tensor(prefix + (Gen(g),) + tail), pref * ts * c)
    return out


def r2(ctx: EnvelopeContext, x, y) -> Element:
    """Bilinear extension of r2 on pairs of tensor words to elements."""
    if isinstance(x, Tensor):
        x = Element.single(x)
    if isinstance(y, Tensor):
        y = Element.single(y)
    require(x, is_tensor_of_gens, "tensor words over generators")
    require(y, is_tensor_of_gens, "tensor words over generators")
    return x.map_pairs(y, lambda wx, wy: _r2_image(ctx, wx, wy))


def _r2_shifted(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """(-1)^{deg' x} r2(x, y), the once-shifted companion."""
    res = _r2_image(ctx, x, y)
    if degree(x, SHIFT2) & 1:
        return -res
    return res


# ---------------------------------------------------------------------------
# the one lift: a coderivation from its slot maps
# ---------------------------------------------------------------------------

def _lift(ctx: EnvelopeContext, elem: Element, unary, binary) -> Element:
    """The coderivation whose corestriction is unary(ctx, w) on one factor
    and binary(ctx, a, b) on two, on pair words (head; tail) or symmetric
    words (tail only), with deg' signs; either map may be None.  Its four
    kinds of term are listed in the module docstring."""
    out = Element()
    add = out.add_term
    for word, coeff in elem.items():
        is_pair = type(word) is Pair
        factors = word.tail.factors if is_pair else word.factors
        word, coeff = canonical_term(word, coeff, factors, SHIFT2)
        if word is None:
            continue
        head, tail = (word.head, word.tail) if is_pair else (None, word)
        factors = tail.factors
        n = len(factors)
        tdegs = [degree(f, SHIFT2) for f in factors]
        head_sign = -1 if is_pair and degree(head, SHIFT2) & 1 else 1
        # eps[j]: the sign of moving tail factor j to the front
        eps = []
        odd = 0
        for t in tdegs:
            eps.append(-1 if t & odd & 1 else 1)
            odd ^= t & 1
        if unary is not None:
            # 1. unary at the head
            if is_pair:
                for w, c in unary(ctx, head).items():
                    add(Pair(w, tail), coeff * c)
            # 2. unary at each tail factor, moved to the front, then sorted in
            for j in range(n):
                rest = factors[:j] + factors[j + 1:]
                tail_coeff = coeff * head_sign * eps[j]
                for w, c in unary(ctx, factors[j]).items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        add(Pair(head, sw) if is_pair else sw, tail_coeff * c * s)
        if binary is None:
            continue
        # 3. binary(head, tail factor) as the new head; a sub-tail of a
        # canonical tail is canonical
        if is_pair:
            for j in range(n):
                rest_sym = Sym(factors[:j] + factors[j + 1:])
                for w, c in binary(ctx, head, factors[j]).items():
                    add(Pair(w, rest_sym), coeff * eps[j] * c)
        # 4. binary graded-symmetrised on two tail factors, then sorted in
        for i in range(n):
            for j in range(i + 1, n):
                swap = -1 if tdegs[i] & tdegs[j] & 1 else 1
                # t_i to the front, then t_j past everything before it but t_i
                pair_coeff = coeff * head_sign * eps[i] * eps[j] * swap
                image = (binary(ctx, factors[i], factors[j])
                         + binary(ctx, factors[j], factors[i]).scaled(swap))
                rest = factors[:i] + factors[i + 1:j] + factors[j + 1:]
                for w, c in image.items():
                    s, sw = sym_insert(w, rest, SHIFT2, True)
                    if sw is not None:
                        add(Pair(head, sw) if is_pair else sw, pair_coeff * c * s)
    return out


# ---------------------------------------------------------------------------
# generator-level envelopes (pair and symmetric words over atoms)
# ---------------------------------------------------------------------------

def _atom_words(atoms: Element) -> Element:
    """An element over model atoms as the element over their atom words."""
    out = Element()
    out.terms = {Gen(g): c for g, c in atoms.items()}
    return out


def _d_atom(ctx: EnvelopeContext, a: Gen) -> Element:
    """d on an atom word; zero when the model has no differential."""
    return _atom_words(ctx.model.differential_atom(a.gen))


def _diamond_shifted(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """(-1)^{deg' a} a<>b on atom words."""
    product = _atom_words(ctx.model.diamond_atoms(a.gen, b.gen))
    return -product if degree(a, SHIFT2) & 1 else product


def prelie_envelope_q(ctx: EnvelopeContext, elem: Element) -> Element:
    """Enveloping codifferential on head-atom pair words: the lift of d and
    of the shifted diamond."""
    require(elem, is_pair_over_gens, "pair words over generators")
    return _lift(ctx, elem, _d_atom, _diamond_shifted)


def l_infinity_q(ctx: EnvelopeContext, elem: Element) -> Element:
    """Enveloping codifferential on symmetric atom words for the bracket
    antisymmetrised from the diamond: the lift of d and of the shifted
    diamond, whose symmetrisation is (-1)^{deg' a} [a, b]."""
    require(elem, lambda w: is_sym_of(w, lambda f: type(f) is Gen),
            "symmetric words over generators")
    return _lift(ctx, elem, _d_atom, _diamond_shifted)


# ---------------------------------------------------------------------------
# the lifted codifferential Q = m + R on pair words over tensor words
# ---------------------------------------------------------------------------

def m_map(ctx: EnvelopeContext, elem: Element) -> Element:
    """Lift of D: D at the head, plus head-signed D at every tail factor."""
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    return _lift(ctx, elem, _d_image, None)


def r_map(ctx: EnvelopeContext, elem: Element) -> Element:
    """Lift of the shifted r2: head paired against each tail factor, plus
    the symmetrised shifted r2 on pairs of tail factors."""
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    return _lift(ctx, elem, None, _r2_shifted)


def q_total(ctx: EnvelopeContext, elem: Element) -> Element:
    """Q = m + R, the candidate codifferential of both coproducts, in one
    pass of the lift."""
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    return _lift(ctx, elem, _d_image, _r2_shifted)


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
    past the first leg.  The three sides are added into one signed sum, and
    q runs once per distinct leg word across both legs.
    """
    def q_leg(w):       # q's image of one leg word, keyed by one-leg tuples
        return {(w2,): c for w2, c in q(ctx, Element.single(w)).items()}
    images = {}     # (q_leg, leg word) -> its image, for this call only
    scale = 1 if cop_degree & 1 else -1
    out = coproduct(q(ctx, elem))       # the other sides are added into its terms
    ce = coproduct(elem).terms
    for leg in (0, 1):
        _cosplit_into(out.terms, ce, leg, lambda w: _memo(images, q_leg, w), 1, SHIFT2,
                      ((scale, ()),))
    return out


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
