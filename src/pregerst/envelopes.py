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
degree-one cocrochet), which checks its input's schema once and runs m, R
and Q as their lift bodies on every leg word; and r2_prelie_defect and
r2_derivation_defect, the rows of _IDENTITIES: signed sides over r2 and D,
summed by words._relation_defect through the kernels _r2_into and
_zinfinity_d_into, which add the stored images of r2 and D into one sum.

Signs on the pair-word space are deg' signs; signs inside tensor words are
deg signs.  The model's operations return Elements over atoms, so every
operation is the multilinear extension of its atom-level formula.  Every
checker returns its defect as an Element; turning it into a verdict and
text is left to the caller (suites.run_suite).

Images.  Every map reads what it applies from the context, each image
computed once per context and then read, never copied or changed.  Each
body takes the context first and is read through words._image, which keeps
it in ctx.images under (body,) + arguments: the images of D on a tensor
word and of r2 on a pair of them; the lift's slot images, namely unary on a
factor, binary on (head, t_j) with its sign applied, and the symmetrised
binary on a pair of tail factors (_symmetrised, stored once per factor
pair); and the atom products the bodies of D and r2 read, namely the
diamond, the bracket, d and the signed wedge _q2_wedge.  No key holds the
context, so a context is freed as soon as its last reference goes, and an
aborted image (a term cap) leaves the table as it was (words._store).  The
suites build one context per instance, so no image outlives its instance;
EnvelopeContext.cache_clear(), which mutant calls on entry and exit,
empties the table of every live context.

Canonical tails.  _lift checks once per input word that its symmetric
factors are in canonical order and normalizes it if not.  A sub-tail of a
canonical tail is then a Sym as it stands, with sign 1, and one new factor
joins a sub-tail through sym_insert; a factor replaced in its slot is first
moved to the front, with its Koszul sign.
"""

from __future__ import annotations

import inspect
import weakref
from functools import partial

from .cooperations import _extend_in
from .grading import SHIFT1, SHIFT2, SIGN
from .models import AlgebraModel
from .words import (
    Context,
    Element,
    Gen,
    Pair,
    Sym,
    Tensor,
    _add_signed,
    _add_term,
    _cosplit_into,
    _image,
    _memo,
    _relation_defect,
    _relation_row,
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


class EnvelopeContext(Context):
    """A Context with the model its bodies read, whose images are D, r2, the
    lift's slot images and the atom products.  EnvelopeContext.cache_clear()
    empties the images of every live one."""

    __slots__ = ("model",)
    _live = weakref.WeakSet()

    def __init__(self, model: AlgebraModel):
        super().__init__()
        self.model = model
        EnvelopeContext._live.add(self)

    @classmethod
    def cache_clear(cls):
        for ctx in list(cls._live):
            ctx.images.clear()


def _atom_words(atoms: Element) -> Element:
    """An element over model atoms as the element over their atom words."""
    out = Element()
    out.terms = {Gen(g): c for g, c in atoms.items()}
    return out


def _splice(out: Element, prefix, atoms: Element, suffix, coeff):
    """Accumulate coeff * (prefix (x) atom (x) suffix) over a slot element
    on atom words."""
    for g, c in atoms.items():
        out.add_term(Tensor(prefix + (g,) + suffix), coeff * c)


# ---------------------------------------------------------------------------
# atom products, on atom words
# ---------------------------------------------------------------------------

def _d_atom(ctx: EnvelopeContext, a: Gen) -> Element:
    """d on an atom word; zero when the model has no differential."""
    return _atom_words(ctx.model.differential_atom(a.gen))


def _diamond(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """a<>b on atom words."""
    return _atom_words(ctx.model.diamond_atoms(a.gen, b.gen))


def _q2_wedge(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """Binary part (-1)^{deg a} a wedge b."""
    product = _atom_words(ctx.model.wedge_atoms(a.gen, b.gen))
    if degree(a, SHIFT1) & 1:
        return -product
    return product


def _bracket_atoms(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """[a, b] = a<>b - (-1)^{deg a deg b} b<>a."""
    first = _image(ctx, _diamond, a, b)
    second = _image(ctx, _diamond, b, a)
    sign = SIGN[degree(a, SHIFT1) & degree(b, SHIFT1) & 1]
    return first - second if sign > 0 else first + second


# ---------------------------------------------------------------------------
# the Zinbiel envelope codifferential D on tensor words
# ---------------------------------------------------------------------------

def _zinfinity_d_word(ctx: EnvelopeContext, word: Tensor) -> Element:
    factors = word.factors
    n = len(factors)
    degs = [degree(f, SHIFT1) for f in factors]
    out = Element()
    # differential at every slot
    if ctx.model.has_differential:
        for k in range(n):
            pref = SIGN[sum(degs[:k]) & 1]
            _splice(out, factors[:k], _image(ctx, _d_atom, factors[k]),
                    factors[k + 1:], pref)
    # binary part at the head
    if n >= 2:
        _splice(out, (), _image(ctx, _q2_wedge, factors[0], factors[1]), factors[2:], 1)
    # binary part through mu_2 at interior adjacent slots
    for k in range(1, n - 1):
        pref = SIGN[sum(degs[:k]) & 1]
        direct = _image(ctx, _q2_wedge, factors[k], factors[k + 1])
        swapped = _image(ctx, _q2_wedge, factors[k + 1], factors[k])
        tau = SIGN[degs[k] & degs[k + 1] & 1]
        _splice(out, factors[:k], direct, factors[k + 2:], pref)
        _splice(out, factors[:k], swapped, factors[k + 2:], -pref * tau)
    return out


def zinfinity_d(ctx: EnvelopeContext, elem: Element) -> Element:
    require(elem, is_tensor_of_gens, "tensor words over generators")
    out = Element()
    _zinfinity_d_into(ctx, out.terms, elem.terms, 1)
    return out


def _zinfinity_d_into(ctx: EnvelopeContext, acc: dict, x, coeff):
    """Add coeff times D of a mapping tensor word -> coefficient into acc,
    from the stored images."""
    for w, c in x.items():
        image = _image(ctx, _zinfinity_d_word, w).terms
        _add_signed(acc, image, image.values(), c * coeff, 0)


# ---------------------------------------------------------------------------
# the pre-Lie extension r2 on tensor words
# ---------------------------------------------------------------------------

def _r2_words(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
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
            atoms = _image(ctx, _diamond, xs[0], y1)
        else:
            atoms = _image(ctx, _bracket_atoms, xs[k - 1], y1)
        if not atoms:
            continue
        pref = SIGN[y1_odd & sum(xdeg[k:]) & 1]
        prefix = xs[:k - 1]
        for tail, ts in shuffle_terms(xs[k:], ys[1:], SHIFT1).items():
            for g, c in atoms.items():
                out.add_term(Tensor(prefix + (g,) + tail), pref * ts * c)
    return out


def r2(ctx: EnvelopeContext, x, y) -> Element:
    """Bilinear extension of r2 on pairs of tensor words to elements."""
    if isinstance(x, Tensor):
        x = Element.single(x)
    if isinstance(y, Tensor):
        y = Element.single(y)
    require(x, is_tensor_of_gens, "tensor words over generators")
    require(y, is_tensor_of_gens, "tensor words over generators")
    out = Element()
    _r2_into(ctx, out.terms, x.terms, y.terms, 1)
    return out


def _r2_into(ctx: EnvelopeContext, acc: dict, x, y, coeff):
    """Add coeff times r2 of two mappings tensor word -> coefficient into acc,
    from the stored images."""
    y = y.items()
    for wx, cx in x.items():
        cx *= coeff
        for wy, cy in y:
            image = _image(ctx, _r2_words, wx, wy).terms
            _add_signed(acc, image, image.values(), cx * cy, 0)


# ---------------------------------------------------------------------------
# the one lift: a coderivation from its slot maps
# ---------------------------------------------------------------------------

def _r2_shifted(ctx: EnvelopeContext, x: Tensor, y: Tensor) -> Element:
    """(-1)^{deg' x} r2(x, y), the once-shifted companion."""
    res = _image(ctx, _r2_words, x, y)
    if degree(x, SHIFT2) & 1:
        return -res
    return res


def _diamond_shifted(ctx: EnvelopeContext, a: Gen, b: Gen) -> Element:
    """(-1)^{deg' a} a<>b on atom words."""
    product = _image(ctx, _diamond, a, b)
    return -product if degree(a, SHIFT2) & 1 else product


def _symmetrised(ctx: EnvelopeContext, binary, a, b) -> Element:
    """binary(a, b) + (-1)^{deg' a deg' b} binary(b, a), read from the two
    stored images of binary."""
    swap = SIGN[degree(a, SHIFT2) & degree(b, SHIFT2) & 1]
    out = Element()
    out.terms = dict(_image(ctx, binary, a, b).terms)
    add = out.add_term
    for w, c in _image(ctx, binary, b, a).items():
        add(w, c * swap)
    return out


def _lift(ctx: EnvelopeContext, elem: Element, unary, binary) -> Element:
    """The coderivation whose corestriction is the body unary(ctx, w) on one
    factor and binary(ctx, a, b) on two, on pair words (head; tail) or
    symmetric words (tail only), with deg' signs; either body may be None.
    Every slot image is read from ctx, the two-factor one on a pair of tail
    factors symmetrised, and a zero image is skipped before any word is
    built for it.  Its four kinds of term are listed in the module
    docstring; all go into one dict."""
    out = Element()
    acc = out.terms
    for word, coeff in elem.items():
        is_pair = type(word) is Pair
        factors = word.tail.factors if is_pair else word.factors
        word, coeff = canonical_term(word, coeff, factors, SHIFT2)
        if word is None:
            continue
        head, tail = (word.head, word.tail) if is_pair else (None, word)
        factors = tail.factors
        n = len(factors)
        tdegs = [f.degrees[SHIFT2] for f in factors]
        head_sign = SIGN[is_pair and degree(head, SHIFT2) & 1]
        # eps[j]: the sign of moving tail factor j to the front
        eps = []
        odd = 0
        for t in tdegs:
            eps.append(SIGN[t & odd & 1])
            odd ^= t & 1
        # (image, coefficient, place) per nonzero slot, kind by kind: a Sym
        # place is the tail kept under each image word as the new head, a
        # tuple place the rest of the tail each image word is sorted into
        slots = []
        if unary is not None:
            # 1. unary at the head
            if is_pair:
                image = _image(ctx, unary, head).terms
                if image:
                    slots.append((image, coeff, tail))
            # 2. unary at each tail factor, moved to the front, then sorted in
            for j in range(n):
                image = _image(ctx, unary, factors[j]).terms
                if image:
                    tail_coeff = coeff * head_sign * eps[j]
                    slots.append((image, tail_coeff, factors[:j] + factors[j + 1:]))
        if binary is not None:
            # 3. binary(head, tail factor) as the new head; a sub-tail of a
            # canonical tail is canonical
            if is_pair:
                for j in range(n):
                    image = _image(ctx, binary, head, factors[j]).terms
                    if image:
                        slots.append((image, coeff * eps[j], Sym(factors[:j] + factors[j + 1:])))
            # 4. binary graded-symmetrised on two tail factors, then sorted in
            for i in range(n):
                for j in range(i + 1, n):
                    image = _image(ctx, _symmetrised, binary, factors[i], factors[j]).terms
                    if image:
                        swap = SIGN[tdegs[i] & tdegs[j] & 1]
                        # t_i to the front, then t_j past everything before it but t_i
                        pair_coeff = coeff * head_sign * eps[i] * eps[j] * swap
                        slots.append((image, pair_coeff,
                                      factors[:i] + factors[i + 1:j] + factors[j + 1:]))
        for image, slot_coeff, place in slots:
            new_head = type(place) is Sym
            for w, c in image.items():
                c = slot_coeff * c
                if new_head:
                    key = Pair(w, place)
                else:
                    s, sw = sym_insert(w, place, SHIFT2, True)
                    if sw is None:
                        continue
                    key = Pair(head, sw) if is_pair else sw
                    c = c * s
                _add_term(acc, key, c)
    return out


# ---------------------------------------------------------------------------
# generator-level envelopes (pair and symmetric words over atoms)
# ---------------------------------------------------------------------------

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
    return _lift(ctx, elem, _zinfinity_d_word, None)


def r_map(ctx: EnvelopeContext, elem: Element) -> Element:
    """Lift of the shifted r2: head paired against each tail factor, plus
    the symmetrised shifted r2 on pairs of tail factors."""
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    return _lift(ctx, elem, None, _r2_shifted)


def q_total(ctx: EnvelopeContext, elem: Element) -> Element:
    """Q = m + R, the candidate codifferential of both coproducts, in one
    pass of the lift."""
    require(elem, is_pair_over_tensors, "pair words over tensor words")
    return _lift(ctx, elem, _zinfinity_d_word, _r2_shifted)


# ---------------------------------------------------------------------------
# exact checkers
# ---------------------------------------------------------------------------

# The lift bodies of the maps on pair words over tensor words, named inside
# lambdas so that a wrapper bound to a module name later is not bypassed.
_Q_BODIES = {m_map: lambda: (_zinfinity_d_word, None), r_map: lambda: (None, _r2_shifted),
             q_total: lambda: (_zinfinity_d_word, _r2_shifted)}


def coderivation_defect(ctx: EnvelopeContext, q, coproduct, cop_degree: int,
                        elem: Element) -> Element:
    """Defect of the coderivation law of the degree-one map q(ctx, -), one
    of m_map, r_map and q_total, for the given coproduct on pair words.

    Degree-0 coproducts use cop(Q e) - (Q x id + id x Q)(cop e); a degree-one
    coproduct is checked in the signed form cop(Q e) + (Q x id + id x Q)(cop e),
    the convention under which the m half of the lift does coderive the
    cocrochet (the unsigned form fails for m, which pins the sign).  The
    (id x Q) leg always carries the Koszul sign of moving a degree-one map
    past the first leg.  The three sides are added into one signed sum, q
    runs once per distinct leg word across both legs, and kappa reads its
    images (embeddings, sym_inserts) from the Context of the call; delta_perm
    embeds nothing, reading its signs from a table per tail parity pattern.
    elem's schema is checked once: m_map, r_map and q_total (past any
    wrapper) run as their lift bodies on e and on each leg word, and any
    other q is called as it is.
    """
    bodies = _Q_BODIES.get(inspect.unwrap(q))
    if bodies is None:
        apply = lambda e: q(ctx, e)
    else:
        require(elem, is_pair_over_tensors, "pair words over tensor words")
        unary, binary = bodies()
        apply = lambda e: _lift(ctx, e, unary, binary)

    def q_leg(w):       # q's image of one leg word, keyed by one-leg tuples
        return {(w2,): c for w2, c in apply(Element.single(w)).items()}
    cache = Context()       # the coproduct's images and q_leg's, for this call only
    scale = 1 if cop_degree & 1 else -1
    out = _extend_in(cache, coproduct, apply(elem))     # the other sides are added into its terms
    ce = _extend_in(cache, coproduct, elem).terms
    for leg in (0, 1):
        _cosplit_into(out.terms, ce, leg, lambda w: _memo(cache, q_leg, w), 1, SHIFT2,
                      ((scale, ()),))
    return out


# The identities of r2 as rows of signed sides over r2 and D, as models._AXIOMS.
_R2, _D = "r2", "D"
_IDENTITIES = {
    # the associator of r2 is deg-symmetric in its last two arguments
    "r2_prelie": _relation_row(3, (
        (lambda x, y, z: 0, (_R2, (_R2, 0, 1), 2)),
        (lambda x, y, z: 1, (_R2, 0, (_R2, 1, 2))),
        (lambda x, y, z: 1 + y * z, (_R2, (_R2, 0, 2), 1)),
        (lambda x, y, z: y * z, (_R2, 0, (_R2, 2, 1)))), graded=(1, 2)),
    # D r2(x, y) = r2(Dx, y) + (-1)^{deg x} r2(x, Dy)
    "r2_derivation": _relation_row(2, (
        (lambda x, y: 0, (_D, (_R2, 0, 1))),
        (lambda x, y: 1, (_R2, (_D, 0), 1)),
        (lambda x, y: 1 + x, (_R2, 0, (_D, 1)))), graded=(0,)),
}


def _identity_defect(ctx: EnvelopeContext, name: str, args) -> Element:
    """The defect of a row of _IDENTITIES on elements over tensor words."""
    for arg in args:
        require(arg, is_tensor_of_gens, "tensor words over generators")
    ops = {_R2: partial(_r2_into, ctx), _D: partial(_zinfinity_d_into, ctx)}
    return _relation_defect(_IDENTITIES[name], ops, args, SHIFT1, name)


def r2_prelie_defect(ctx: EnvelopeContext, x: Element, y: Element,
                     z: Element) -> Element:
    """Pre-Lie relation for r2: the associator is deg-symmetric in the last
    two arguments.  A zero argument gives the zero defect."""
    return _identity_defect(ctx, "r2_prelie", (x, y, z))


def r2_derivation_defect(ctx: EnvelopeContext, x: Element, y: Element) -> Element:
    """D is a derivation of r2: D r2(x,y) = r2(Dx, y) + (-1)^{deg x} r2(x, Dy).
    A zero argument gives the zero defect."""
    return _identity_defect(ctx, "r2_derivation", (x, y))
